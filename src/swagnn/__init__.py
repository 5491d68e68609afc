"""Graph classification with smoothed random-walk kernels.

The encoder scores each input graph against a bank of trainable hidden
graphs with a diffusion-smoothed random-walk kernel.  Self-supervised
pretraining draws positives by resampling graphs from a spectral estimate
of their edge-probability matrix.
"""

from . import augment, autodiff, errors, graphs, kernel, reporting, ssl, training
from .augment import LgaAugmenter, make_augmenter, usvt_estimate
from .errors import (ConfigError, ContractError, FormatError, LoadError,
                     NumericalError, SwagError, TapeError, TrainingError)
from .graphs import Dataset, DiffusionConfig, Graph, load_tu_dataset
from .kernel import KernelConfig, SwagParams, encode_batch, swag_encode
from .training import (RunResult, TrainConfig, ablate, adapt, pretrain_ssl,
                       train_supervised)

__all__ = [
    "augment", "autodiff", "errors", "graphs", "kernel",
    "reporting", "ssl", "training",
    "LgaAugmenter", "make_augmenter", "usvt_estimate",
    "ConfigError", "ContractError", "FormatError", "LoadError",
    "NumericalError", "SwagError", "TapeError", "TrainingError",
    "Dataset", "DiffusionConfig", "Graph", "load_tu_dataset",
    "KernelConfig", "SwagParams", "encode_batch", "swag_encode",
    "RunResult", "TrainConfig", "ablate", "adapt", "pretrain_ssl",
    "train_supervised",
]
