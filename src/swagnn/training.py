"""Cross-validated training driver.

Every mode trains through one loop, ``_epochs``: one permutation per
epoch, one optimizer step per batch, the example-weighted mean loss.
``_run_fold`` fits a classifier on one fold and trains the encoder with
it, except in probe mode, which encodes each split once.
``_pretrain_fold`` trains one fold's encoder label-free on that fold's
train split only.  ``train_supervised`` and ``adapt`` share one
cross-validation body, and ``cross_validate`` runs a supervised, probe or
finetune config end to end, pretraining first for the last two.
Checkpoints are selected per fold by validation accuracy, earliest epoch
winning ties; the reported train accuracy is measured at the final epoch
as an optimization sanity signal.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingError
from .graphs import (
    Dataset,
    DiffusionConfig,
    FoldSplit,
    Graph,
    degree_features,
    load_tu_dataset,
    stratified_folds,
)
from .kernel import KernelConfig, SwagParams, encode_batch, encode_numpy
from .ssl import (
    ProjectionHead,
    TwoLayerMLP,
    infonce_loss,
    make_ssl_batch,
    noncontrastive_loss,
)
from .augment import make_augmenter

PREDICTOR_HIDDEN = 32
TAU_GUIDANCE = (0.3, 4.2)
# the modes that adapt a pretrained encoder
ADAPT_MODES = ("probe", "finetune")
# the TrainConfig fields that kernel_config() turns into the encoder: a
# saved encoder only fits a config that agrees on every one of them
ENCODER_FIELDS = ("hidden_graphs", "hidden_nodes", "hidden_dim", "walk_len",
                  "diff_steps", "alpha")

# the JSON values each TrainConfig annotation, as text, accepts; bool is
# rejected although Python counts it as an int
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


@dataclass
class TrainConfig:
    dataset: str = "toy"
    data_dir: str = "."
    mode: str = "supervised"
    hidden_graphs: int = 16
    hidden_nodes: int = 10
    hidden_dim: int = 32
    walk_len: int = 3
    diff_steps: int = 3
    alpha: float = 0.15
    tau: float = 2.02
    drop_rate: float = 0.2
    augmenter: str = "lga"
    objective: str = "infonce"
    epochs: int = 200
    lr: float = 0.01
    batch_size: int = 64
    folds: int = 10
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.mode not in ("supervised", "pretrain", "probe", "finetune"):
            raise ConfigError(f"TrainConfig: unknown mode {self.mode!r}")
        if self.objective not in ("infonce", "simsiam"):
            raise ConfigError(f"TrainConfig: unknown objective {self.objective!r}")
        if self.epochs < 1:
            raise ConfigError(f"TrainConfig: epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"TrainConfig: lr must be positive and finite, got {self.lr}")
        if not (self.tau > 0):
            raise ConfigError(f"TrainConfig: tau must be positive, got {self.tau}")
        if self.seed < 0:
            raise ConfigError(f"TrainConfig: seed must be >= 0, got {self.seed}")

    def kernel_config(self) -> KernelConfig:
        return KernelConfig(num_hidden=self.hidden_graphs,
                            hidden_nodes=self.hidden_nodes,
                            hidden_dim=self.hidden_dim,
                            max_walk=self.walk_len,
                            diffusion=DiffusionConfig(alpha=self.alpha,
                                                      depth=self.diff_steps))

    def make_augmenter(self):
        return make_augmenter(self.augmenter, tau=self.tau,
                              drop_rate=self.drop_rate, seed=self.seed)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(values) - set(types)
        if unknown:
            raise ConfigError(f"TrainConfig: unknown fields {sorted(unknown)}")
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[types[name]]):
                raise ConfigError(f"TrainConfig: {name} must be of type {types[name]}, "
                                  f"got {value!r}")
        return cls(**values)


@dataclass
class RunResult:
    fold_accuracies: list
    mean_accuracy: float
    std_accuracy: float
    wall_time: float
    config: dict
    mode: str
    loss_curves: list
    val_curves: list
    val_accuracies: list
    train_accuracies: list
    best_epochs: list
    fold_seconds: list
    # per-fold (encoder params, predictor) at the selected checkpoint;
    # kept out of serialized reports
    fold_states: list = field(default=None, repr=False, compare=False)

    @classmethod
    def aggregate(cls, folds: list, config: dict, mode: str,
                  wall_time: float) -> "RunResult":
        accs = [f["test_accuracy"] for f in folds]
        return cls(fold_accuracies=accs,
                   mean_accuracy=float(np.mean(accs)),
                   std_accuracy=float(np.std(accs)),
                   wall_time=wall_time,
                   config=config,
                   mode=mode,
                   loss_curves=[f["loss_curve"] for f in folds],
                   val_curves=[f["val_curve"] for f in folds],
                   val_accuracies=[f["val_accuracy"] for f in folds],
                   train_accuracies=[f["train_accuracy"] for f in folds],
                   best_epochs=[f["best_epoch"] for f in folds],
                   fold_seconds=[f["seconds"] for f in folds],
                   fold_states=[f["state"] for f in folds])


class Predictor(TwoLayerMLP):
    """Classifier head: encoding -> 32 -> class logits."""

    @classmethod
    def for_task(cls, input_dim: int, num_classes: int,
                 rng: np.random.Generator) -> "Predictor":
        return cls.init(input_dim, PREDICTOR_HIDDEN, num_classes, rng)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes."""
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = ad.reduce_sum(ad.log_softmax(logits) * ad.constant(onehot), axis=1)
    return ad.scale(picked.mean(), -1.0)


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------

def make_toy_dataset() -> Dataset:
    """Eight tiny graphs: four triangles (class 0), four 3-node paths
    (class 1).  Separable by any second-order walk statistic."""
    graphs = []
    tri = np.ones((3, 3)) - np.eye(3)
    path = np.zeros((3, 3))
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1.0
    for label, adj in ((0, tri), (1, path)):
        for _ in range(4):
            g = Graph(3, adj.copy(), np.zeros((3, 1)), label)
            g.features = degree_features(g)
            graphs.append(g)
    return Dataset(graphs, 2, 1, "toy")


def load_dataset(cfg: TrainConfig) -> Dataset:
    if cfg.dataset == "toy":
        return make_toy_dataset()
    return load_tu_dataset(cfg.data_dir, cfg.dataset)


def _batch_indices(order: np.ndarray, batch_size: int, min_last: int = 1) -> list:
    """Consecutive batches over a shuffled index order; a trailing batch
    smaller than ``min_last`` is merged into the previous one."""
    batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if len(batches) > 1 and len(batches[-1]) < min_last:
        tail = batches.pop()
        batches[-1] = np.concatenate([batches[-1], tail])
    return batches


def _accuracy(encodings: np.ndarray, labels: np.ndarray, head: TwoLayerMLP) -> float:
    logits = head(ad.constant(encodings)).data
    return float(np.mean(logits.argmax(axis=1) == labels))


def _snapshot(params_list: list) -> list:
    return [p.data.copy() for p in params_list]


def _restore(params_list: list, snapshot: list):
    for p, data in zip(params_list, snapshot):
        p.data = data.copy()


def _check_finite(value: float, what: str, fold: int, epoch: int):
    if not np.isfinite(value):
        raise TrainingError(f"{what} became non-finite at fold {fold}, epoch {epoch}")


# ---------------------------------------------------------------------------
# per-fold training
# ---------------------------------------------------------------------------

def _validated_folds(ds: Dataset, cfg: TrainConfig) -> list:
    """Stratified folds for training that keeps the best-validating epoch;
    every fold must hold at least one validation graph."""
    folds = stratified_folds(ds, cfg.folds, cfg.seed)
    for fold, split in enumerate(folds):
        if not split.val_idx:
            raise ConfigError(f"fold {fold} of {cfg.folds} has no validation graph: no class "
                              f"has two non-test graphs to split; use fewer folds")
    return folds


def _epochs(opt: ad.Adam, rng: np.random.Generator, n: int, epochs: int,
            batch_size: int, batch_loss, what: str, fold: int, min_last: int = 1):
    """The one training loop.  Each epoch draws one permutation of the n
    training positions, takes one optimizer step per batch on
    ``batch_loss(batch, epoch)`` and yields (epoch, example-weighted mean
    loss)."""
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for batch in _batch_indices(order, batch_size, min_last):
            loss = batch_loss(batch, epoch)
            _check_finite(loss.item(), what, fold, epoch)
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            total += loss.item() * len(batch)
            seen += len(batch)
        yield epoch, total / seen


def _run_fold(ds: Dataset, split: FoldSplit, cfg: TrainConfig, kcfg: KernelConfig,
              fold: int, params: SwagParams = None) -> dict:
    """Train a classifier on one fold; the encoder trains with it unless
    ``cfg.mode`` is "probe"."""
    start = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, fold])
    labels = ds.labels()
    if params is None:
        params = SwagParams.init(kcfg, ds.feature_dim, rng)
    predictor = Predictor.for_task(kcfg.output_dim, ds.num_classes, rng)
    frozen = cfg.mode == "probe"
    trained = ([] if frozen else params.parameters()) + predictor.parameters()
    opt = ad.Adam(trained, lr=cfg.lr)

    train_graphs = [ds.graphs[i] for i in split.train_idx]
    train_labels = labels[split.train_idx]
    val_graphs = [ds.graphs[i] for i in split.val_idx]
    val_labels = labels[split.val_idx]

    def encode(graphs):
        return encode_numpy(graphs, params, kcfg)

    # a frozen encoder encodes each split once
    train_enc, val_enc = (encode(train_graphs), encode(val_graphs)) if frozen else (None, None)

    def batch_loss(batch, epoch):
        enc = (ad.constant(train_enc[batch]) if frozen
               else encode_batch([train_graphs[i] for i in batch], params, kcfg))
        return softmax_cross_entropy(predictor(enc), train_labels[batch])

    loss_curve, val_curve = [], []
    best_val, best_epoch, best_state = -1.0, -1, None
    for epoch, mean_loss in _epochs(opt, rng, len(train_graphs), cfg.epochs, cfg.batch_size,
                                    batch_loss, "training loss", fold):
        loss_curve.append(mean_loss)
        val_acc = _accuracy(val_enc if frozen else encode(val_graphs), val_labels, predictor)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val, best_epoch = val_acc, epoch
            best_state = _snapshot(trained)

    final_train_acc = _accuracy(train_enc if frozen else encode(train_graphs),
                                train_labels, predictor)
    _restore(trained, best_state)
    test_graphs = [ds.graphs[i] for i in split.test_idx]
    test_acc = _accuracy(encode(test_graphs), labels[split.test_idx], predictor)
    return {"test_accuracy": test_acc,
            "val_accuracy": best_val,
            "train_accuracy": final_train_acc,
            "best_epoch": best_epoch,
            "loss_curve": loss_curve,
            "val_curve": val_curve,
            "seconds": time.perf_counter() - start,
            "state": (params, predictor)}


def _run_folds(cfg: TrainConfig, dataset: Dataset, fold_params: list = None) -> RunResult:
    """One ``_run_fold`` per validated fold, from scratch or from each
    fold's pretrained encoder."""
    ds = dataset if dataset is not None else load_dataset(cfg)
    kcfg = cfg.kernel_config()
    folds = _validated_folds(ds, cfg)
    if fold_params is not None and len(folds) != len(fold_params):
        raise ConfigError("adapt: fold count does not match the pretrained run")
    start = time.perf_counter()
    results = [_run_fold(ds, split, cfg, kcfg, fold,
                         None if fold_params is None else fold_params[fold].copy())
               for fold, split in enumerate(folds)]
    return RunResult.aggregate(results, cfg.to_dict(), cfg.mode,
                               time.perf_counter() - start)


def train_supervised(cfg: TrainConfig, dataset: Dataset = None) -> RunResult:
    """Joint encoder + classifier training with k-fold evaluation."""
    if cfg.mode != "supervised":
        raise ConfigError(f"train_supervised: mode must be 'supervised', got {cfg.mode!r}")
    return _run_folds(cfg, dataset)


# ---------------------------------------------------------------------------
# self-supervised pretraining and adaptation
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    fold_params: list
    fold_heads: list
    loss_curves: list
    config: dict
    folds: list = field(default_factory=list)


def _pretrain_fold(ds: Dataset, split: FoldSplit, cfg: TrainConfig,
                   kcfg: KernelConfig, fold: int, augmenter, epochs: int):
    rng = np.random.default_rng([cfg.seed, fold, 1])
    params = SwagParams.init(kcfg, ds.feature_dim, rng)
    head = ProjectionHead.for_encoder(kcfg.output_dim, rng)
    if cfg.objective == "infonce":
        loss_fn, min_batch = infonce_loss, 2
    else:
        loss_fn, min_batch = noncontrastive_loss, 1
    opt = ad.Adam(params.parameters() + head.parameters(), lr=cfg.lr)
    train_idx = np.asarray(split.train_idx)

    def batch_loss(batch, epoch):
        positions = train_idx[batch]
        graphs = [ds.graphs[i] for i in positions]
        return loss_fn(make_ssl_batch(graphs, augmenter, params, kcfg, epoch,
                                      indices=positions), head)

    curve = [mean_loss for _, mean_loss in
             _epochs(opt, rng, len(train_idx), epochs, cfg.batch_size, batch_loss,
                     "pretraining loss", fold, min_last=min_batch)]
    return params, head, curve


def pretrain_ssl(cfg: TrainConfig, dataset: Dataset = None,
                 epochs: int = None) -> PretrainResult:
    """Label-free encoder pretraining, one encoder per fold.

    Each fold's encoder sees only that fold's train split, so downstream
    adaptation never leaks test graphs into pretraining.
    """
    ds = dataset if dataset is not None else load_dataset(cfg)
    kcfg = cfg.kernel_config()
    folds = stratified_folds(ds, cfg.folds, cfg.seed)
    augmenter = cfg.make_augmenter()
    epochs = cfg.epochs if epochs is None else epochs
    fold_params, fold_heads, curves = [], [], []
    for fold, split in enumerate(folds):
        params, head, curve = _pretrain_fold(ds, split, cfg, kcfg, fold,
                                             augmenter, epochs)
        fold_params.append(params)
        fold_heads.append(head)
        curves.append(curve)
    return PretrainResult(fold_params, fold_heads, curves, cfg.to_dict(), folds)


def adapt(pretrained: PretrainResult, cfg: TrainConfig,
          dataset: Dataset = None) -> RunResult:
    """Evaluate a pretrained encoder: probe trains the classifier only,
    finetune continues training the encoder as well."""
    if pretrained is None or not pretrained.fold_params:
        raise ConfigError("adapt: pretrained parameters are required")
    if cfg.mode not in ADAPT_MODES:
        raise ConfigError(f"adapt: mode must be 'probe' or 'finetune', got {cfg.mode!r}")
    return _run_folds(cfg, dataset, pretrained.fold_params)


def cross_validate(cfg: TrainConfig, dataset: Dataset = None,
                   pretrain_epochs: int = None) -> RunResult:
    """One cross-validated run of ``cfg.mode``: probe and finetune first
    pretrain each fold's encoder, supervised trains from scratch.  The
    dataset is loaded at most once."""
    ds = dataset if dataset is not None else load_dataset(cfg)
    if cfg.mode in ADAPT_MODES:
        pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds,
                           epochs=pretrain_epochs)
        return adapt(pre, cfg, ds)
    return train_supervised(cfg, ds)


# ---------------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------------

def ablate(cfg: TrainConfig, parameter: str, values: list,
           dataset: Dataset = None, pretrain_epochs: int = None) -> list:
    """One full run per value with shared folds and seeds.

    A tau sweep exercises the augmentation pipeline (pretrain + adapt);
    a num_hidden sweep honours the configured mode.
    """
    if parameter not in ("tau", "num_hidden"):
        raise ConfigError(f"ablate: unknown parameter {parameter!r}")
    ds = dataset if dataset is not None else load_dataset(cfg)
    results = []
    for value in values:
        if parameter == "tau":
            if not (TAU_GUIDANCE[0] <= value <= TAU_GUIDANCE[1]):
                warnings.warn(f"tau={value} outside the guidance range "
                              f"[{TAU_GUIDANCE[0]}, {TAU_GUIDANCE[1]}]")
            mode = cfg.mode if cfg.mode in ADAPT_MODES else "finetune"
            run_cfg = dataclasses.replace(cfg, tau=float(value), augmenter="lga",
                                          mode=mode)
        else:
            mode = cfg.mode if cfg.mode in ADAPT_MODES else "supervised"
            run_cfg = dataclasses.replace(cfg, hidden_graphs=int(value), mode=mode)
        results.append(cross_validate(run_cfg, ds, pretrain_epochs))
    return results
