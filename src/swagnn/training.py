"""Cross-validated training driver.

Every mode trains through one loop, ``_epochs``: one permutation per
epoch, one optimizer step per batch, the example-weighted mean loss.
``_run_fold`` fits a classifier on one fold and trains the encoder with
it, except in probe mode, which encodes each graph once per fold.
``_pretrain_fold`` trains one fold's encoder label-free on that fold's
train split only.  Every entry point takes the dataset from its caller
and makes one fold list for ``_run_folds`` or ``_pretrain_folds``, and
``cross_validate`` runs a supervised, probe or finetune config end to end,
pretraining first for the last two on the folds it then adapts on.
Checkpoints are selected per fold by validation accuracy, earliest epoch
winning ties; the reported train accuracy is measured at the final epoch
as an optimization sanity signal.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
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
    OBJECTIVES,
    ProjectionHead,
    TwoLayerMLP,
    make_ssl_batch,
    softmax_cross_entropy,
)
from .augment import AUGMENTERS, make_augmenter

PREDICTOR_HIDDEN = 32
TAU_GUIDANCE = (0.3, 4.2)
# the modes that adapt a pretrained encoder
ADAPT_MODES = ("probe", "finetune")
MODES = ("supervised", "pretrain") + ADAPT_MODES
# the TrainConfig fields that take one of a fixed set of values
CHOICES = {"mode": MODES, "augmenter": tuple(AUGMENTERS), "objective": tuple(OBJECTIVES)}
# ablation parameter -> the TrainConfig field it sweeps
ABLATIONS = {"tau": "tau", "num_hidden": "hidden_graphs"}
# the TrainConfig fields that kernel_config() turns into the encoder: a
# saved encoder only fits a config that agrees on every one of them
ENCODER_FIELDS = ("hidden_graphs", "hidden_nodes", "hidden_dim", "walk_len",
                  "diff_steps", "alpha")

# each TrainConfig annotation, as text: the JSON values it accepts (bool is
# rejected although Python counts it as an int) and its command-line flag's type
FIELD_TYPES = {"int": (int, int), "float": ((int, float), float), "str": (str, str),
               "int | None": ((int, type(None)), int), "str | None": ((str, type(None)), str)}


@dataclass
class TrainConfig:
    """One run's settings.  In the paper's symbols: ``hidden_graphs`` is M,
    ``hidden_nodes`` m, ``hidden_dim`` d_h, ``walk_len`` P and ``diff_steps``
    J.  Every field but ``mode`` is also a command-line flag of the same
    name (``hidden_graphs`` -> ``--hidden-graphs``); ``CHOICES`` lists the
    values a field may take where that is a fixed set."""

    dataset: str = "toy"
    data_dir: str = "."
    mode: str = "supervised"
    hidden_graphs: int = KernelConfig.num_hidden
    hidden_nodes: int = KernelConfig.hidden_nodes
    hidden_dim: int = KernelConfig.hidden_dim
    walk_len: int = KernelConfig.max_walk
    diff_steps: int = DiffusionConfig.depth
    alpha: float = DiffusionConfig.alpha
    tau: float = 2.02
    drop_rate: float = 0.2
    augmenter: str = "lga"
    objective: str = "infonce"
    epochs: int = 200
    # the pretraining budget of pretrain, probe and finetune: None means
    # ``epochs``; 0 keeps the untrained encoder, the control for what it buys
    pretrain_epochs: int | None = None
    lr: float = 0.01
    batch_size: int = 64
    folds: int = 10
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"TrainConfig: unknown {name} {getattr(self, name)!r} "
                                  f"(expected one of {', '.join(allowed)})")
        if self.epochs < 1:
            raise ConfigError(f"TrainConfig: epochs must be >= 1, got {self.epochs}")
        if self.pretrain_epochs is not None and self.pretrain_epochs < 0:
            raise ConfigError(f"TrainConfig: pretrain_epochs must be >= 0, "
                              f"got {self.pretrain_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"TrainConfig: lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"TrainConfig: seed must be >= 0, got {self.seed}")
        # the encoder config and every augmenter, chosen or not, check their fields
        self.kernel_config()
        for build in AUGMENTERS.values():
            build(self.tau, self.drop_rate, self.seed)

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
        """Check each value's JSON type (``FIELD_TYPES``); unset fields keep their defaults."""
        unknown = set(values) - set(FIELDS)
        if unknown:
            raise ConfigError(f"TrainConfig: unknown fields {sorted(unknown)}")
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[FIELDS[name]][0]):
                raise ConfigError(f"TrainConfig: {name} must be of type {FIELDS[name]}, "
                                  f"got {value!r}")
        return cls(**values)


# each TrainConfig field -> its annotation, as text: the one walk of its fields
FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


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
    def aggregate(cls, folds: list, config: dict, wall_time: float) -> "RunResult":
        accs = [f["test_accuracy"] for f in folds]
        return cls(fold_accuracies=accs,
                   mean_accuracy=float(np.mean(accs)),
                   std_accuracy=float(np.std(accs)),
                   wall_time=wall_time,
                   config=config,
                   mode=config["mode"],
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
    """Share of rows whose largest logit is the label's, from the head's
    plain numpy ``forward``: evaluation records no tape node.  An exact
    count over the row count, so the bits of ``np.mean`` of the hits."""
    logits = head.forward(encodings)[1]
    return float(np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels))


def _check_finite(value: float, what: str, fold: int, epoch: int):
    if not math.isfinite(value):
        raise TrainingError(f"{what} became non-finite at fold {fold}, epoch {epoch}")


@contextlib.contextmanager
def _overflow_checked(what: str, fold: int, epoch: int):
    """numpy arithmetic inside that overflows or turns invalid is a
    TrainingError naming the fold and epoch, not a warning and an inf."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingError(f"{what} overflowed at fold {fold}, epoch {epoch} ({exc})") from exc


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


def _epochs(opt: ad.Adam, rng: np.random.Generator, positions: list, epochs: int,
            batch_size: int, batch_loss, what: str, fold: int, min_last: int = 1):
    """The one training loop, over a fold's training graphs given by their
    dataset ``positions``.  Each epoch draws one permutation of them, takes
    one optimizer step per batch of positions on ``batch_loss(batch,
    epoch)`` and yields (epoch, example-weighted mean loss).  One
    ``_overflow_checked`` guard spans an epoch's batches, so an overflow or
    a non-finite loss in any batch names that fold and epoch; the caller's
    per-epoch work runs outside it."""
    positions = np.asarray(positions)
    for epoch in range(epochs):
        order = positions[rng.permutation(len(positions))]
        total, seen = 0.0, 0
        with _overflow_checked(what, fold, epoch):
            for batch in _batch_indices(order, batch_size, min_last):
                loss = batch_loss(batch, epoch)
                value = loss.item()
                _check_finite(value, what, fold, epoch)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
                total += value * len(batch)
                seen += len(batch)
        yield epoch, total / seen


def _run_fold(ds: Dataset, split: FoldSplit, cfg: TrainConfig, fold: int,
              params: SwagParams = None) -> dict:
    """Train a classifier on one fold; the encoder trains with it unless
    ``cfg.mode`` is "probe".  Every split's graphs, labels and encodings
    are read by dataset position.

    A probe's frozen encoder encodes the whole dataset in one
    ``encode_numpy`` pass, which builds its hidden walks once, and the
    fold's train, validation and test rows are taken from it (a row does
    not depend on the graphs encoded with it).  So an overflow while
    encoding any of them, test graphs included, stops the fold before its
    first epoch as "encoding overflowed at fold f, epoch 0".
    """
    start = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, fold])
    kcfg = cfg.kernel_config()
    labels = ds.labels()
    if params is None:
        params = SwagParams.init(kcfg, ds.feature_dim, rng)
    predictor = Predictor.for_task(kcfg.output_dim, ds.num_classes, rng)
    frozen = cfg.mode == "probe"
    trained = ([] if frozen else params.parameters()) + predictor.parameters()
    opt = ad.Adam(trained, lr=cfg.lr)
    # positions as arrays once per fold: each epoch's validation indexes by them
    train, val, test = map(np.asarray, (split.train_idx, split.val_idx, split.test_idx))
    # a frozen encoder encodes every graph once
    if frozen:
        with _overflow_checked("encoding", fold, 0):
            encoded = encode_numpy(ds.graphs, params, kcfg)

    def accuracy(positions):
        enc = (encoded[positions] if frozen
               else encode_numpy([ds.graphs[i] for i in positions], params, kcfg))
        return _accuracy(enc, labels[positions], predictor)

    def batch_loss(batch, epoch):
        enc = (ad.constant(encoded[batch]) if frozen
               else encode_batch([ds.graphs[i] for i in batch], params, kcfg))
        return softmax_cross_entropy(predictor(enc), labels[batch])

    loss_curve, val_curve = [], []
    best_val, best_epoch, best_state = -1.0, -1, None
    for epoch, mean_loss in _epochs(opt, rng, train, cfg.epochs, cfg.batch_size,
                                    batch_loss, "training loss", fold):
        loss_curve.append(mean_loss)
        with _overflow_checked("validation", fold, epoch):
            val_acc = accuracy(val)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val, best_epoch = val_acc, epoch
            best_state = opt.data.copy()

    with _overflow_checked("evaluation", fold, cfg.epochs - 1):
        final_train_acc = accuracy(train)
        opt.data[...] = best_state  # in place: each parameter is a view of it
        test_acc = accuracy(test)
    return {"test_accuracy": test_acc,
            "val_accuracy": best_val,
            "train_accuracy": final_train_acc,
            "best_epoch": best_epoch,
            "loss_curve": loss_curve,
            "val_curve": val_curve,
            "seconds": time.perf_counter() - start,
            "state": (params, predictor)}


def _run_folds(cfg: TrainConfig, ds: Dataset, folds: list, fold_params: list = None) -> RunResult:
    """One ``_run_fold`` per fold of ``folds`` (``_validated_folds``), from
    scratch or from each fold's pretrained encoder."""
    start = time.perf_counter()
    results = [_run_fold(ds, split, cfg, fold,
                         None if fold_params is None else fold_params[fold].copy())
               for fold, split in enumerate(folds)]
    return RunResult.aggregate(results, cfg.to_dict(), time.perf_counter() - start)


def train_supervised(cfg: TrainConfig, dataset: Dataset) -> RunResult:
    """Joint encoder + classifier training with k-fold evaluation."""
    if cfg.mode != "supervised":
        raise ConfigError(f"train_supervised: mode must be 'supervised', got {cfg.mode!r}")
    return _run_folds(cfg, dataset, _validated_folds(dataset, cfg))


# ---------------------------------------------------------------------------
# self-supervised pretraining and adaptation
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    fold_params: list
    fold_heads: list
    loss_curves: list
    config: dict


def _pretrain_fold(ds: Dataset, split: FoldSplit, cfg: TrainConfig, fold: int):
    """Train one fold's encoder label-free on its train split for
    ``cfg.pretrain_epochs`` epochs (None means ``cfg.epochs``); a batch's
    dataset positions also key the augmenter's per-graph streams."""
    rng = np.random.default_rng([cfg.seed, fold, 1])
    kcfg = cfg.kernel_config()
    augmenter = cfg.make_augmenter()
    epochs = cfg.epochs if cfg.pretrain_epochs is None else cfg.pretrain_epochs
    params = SwagParams.init(kcfg, ds.feature_dim, rng)
    head = ProjectionHead.for_encoder(kcfg.output_dim, rng)
    loss_fn, min_batch = OBJECTIVES[cfg.objective]
    opt = ad.Adam(params.parameters() + head.parameters(), lr=cfg.lr)

    def batch_loss(batch, epoch):
        return loss_fn(make_ssl_batch([ds.graphs[i] for i in batch], augmenter, params, kcfg,
                                      epoch, indices=batch), head)

    curve = [mean_loss for _, mean_loss in
             _epochs(opt, rng, split.train_idx, epochs, cfg.batch_size, batch_loss,
                     "pretraining loss", fold, min_last=min_batch)]
    return params, head, curve


def _pretrain_folds(ds: Dataset, folds: list, cfg: TrainConfig) -> PretrainResult:
    """One ``_pretrain_fold`` per fold, after checking every fold's batches
    (unless no epoch runs): a fold that would form a batch smaller than the
    objective takes (``OBJECTIVES``) is a ConfigError naming it."""
    min_batch = OBJECTIVES[cfg.objective][1]
    for fold, split in enumerate(folds):
        smallest = min(map(len, _batch_indices(split.train_idx, cfg.batch_size, min_batch)))
        if cfg.pretrain_epochs != 0 and smallest < min_batch:
            raise ConfigError(f"fold {fold}: pretraining loss needs batches of at least "
                              f"{min_batch} graphs, but batch_size {cfg.batch_size} over "
                              f"{len(split.train_idx)} training graph(s) forms a batch of "
                              f"{smallest}")
    runs = [_pretrain_fold(ds, split, cfg, fold) for fold, split in enumerate(folds)]
    fold_params, fold_heads, curves = (list(column) for column in zip(*runs))
    return PretrainResult(fold_params, fold_heads, curves, cfg.to_dict())


def pretrain_ssl(cfg: TrainConfig, dataset: Dataset) -> PretrainResult:
    """Label-free encoder pretraining, one encoder per fold, for
    ``cfg.pretrain_epochs`` epochs.

    Each fold's encoder sees only that fold's train split, so downstream
    adaptation never leaks test graphs into pretraining.
    """
    return _pretrain_folds(dataset, stratified_folds(dataset, cfg.folds, cfg.seed), cfg)


def adapt(pretrained: PretrainResult, cfg: TrainConfig, dataset: Dataset) -> RunResult:
    """Evaluate a pretrained encoder: probe trains the classifier only,
    finetune continues training the encoder as well."""
    if pretrained is None or not pretrained.fold_params:
        raise ConfigError("adapt: pretrained parameters are required")
    if cfg.mode not in ADAPT_MODES:
        raise ConfigError(f"adapt: mode must be one of {', '.join(ADAPT_MODES)}, "
                          f"got {cfg.mode!r}")
    folds = _validated_folds(dataset, cfg)
    if len(folds) != len(pretrained.fold_params):
        raise ConfigError("adapt: fold count does not match the pretrained run")
    return _run_folds(cfg, dataset, folds, pretrained.fold_params)


def cross_validate(cfg: TrainConfig, dataset: Dataset) -> RunResult:
    """One cross-validated run of ``cfg.mode``: probe and finetune first
    pretrain each fold's encoder with ``cfg`` itself for ``pretrain_epochs``,
    supervised trains from scratch.  One fold list serves pretraining and
    adaptation, and it is checked before any pretraining."""
    if cfg.mode not in ADAPT_MODES:
        return train_supervised(cfg, dataset)
    folds = _validated_folds(dataset, cfg)
    return _run_folds(cfg, dataset, folds, _pretrain_folds(dataset, folds, cfg).fold_params)


# ---------------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------------

def sweep_configs(cfg: TrainConfig, parameter: str, values: list) -> list:
    """One run config per swept value, each cast to the type of the field
    it sets, and every one built (so checked by ``TrainConfig``) before
    any run starts.  An empty ``values`` is a ConfigError.  It warns about
    nothing, so a caller can check a sweep.

    A tau sweep exercises the augmentation pipeline (LGA pretrain +
    adapt); a num_hidden sweep honours the configured mode.
    """
    if parameter not in ABLATIONS:
        raise ConfigError(f"ablate: unknown parameter {parameter!r}")
    if not values:
        raise ConfigError(f"ablate: no {parameter} value to sweep")
    name = ABLATIONS[parameter]
    cast = FIELD_TYPES[FIELDS[name]][1]
    fixed = {"augmenter": "lga"} if parameter == "tau" else {}
    fixed["mode"] = (cfg.mode if cfg.mode in ADAPT_MODES else
                     "finetune" if parameter == "tau" else "supervised")
    runs = []
    for value in values:
        try:
            value = cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"ablate: cannot read {value!r} as a {parameter} value "
                              f"({cast.__name__})") from exc
        runs.append(dataclasses.replace(cfg, **fixed, **{name: value}))
    return runs


def ablate(cfg: TrainConfig, parameter: str, values: list, dataset: Dataset) -> list:
    """One full run per config of ``sweep_configs``, with shared folds and seeds, after one
    warning per tau outside ``TAU_GUIDANCE``; a bad value fails before any of it."""
    runs = sweep_configs(cfg, parameter, values)
    for run in runs:
        if parameter == "tau" and not (TAU_GUIDANCE[0] <= run.tau <= TAU_GUIDANCE[1]):
            warnings.warn(f"tau={run.tau} outside the guidance range {list(TAU_GUIDANCE)}")
    return [cross_validate(run, dataset) for run in runs]
