import dataclasses
import re

import numpy as np
import pytest

import swagnn.training
from swagnn import autodiff as ad
from swagnn import augment as augment_module
from swagnn.augment import LgaAugmenter, generate_sbm
from swagnn.errors import ConfigError, TrainingError
from swagnn.graphs import Dataset, FoldSplit, Graph, degree_features, stratified_folds
from swagnn.kernel import KernelConfig, SwagParams
from swagnn.training import (
    Predictor,
    PretrainResult,
    TrainConfig,
    _accuracy,
    _batch_indices,
    _pretrain_fold,
    _run_fold,
    ablate,
    adapt,
    cross_validate,
    make_toy_dataset,
    pretrain_ssl,
    softmax_cross_entropy,
    train_supervised,
)
from test_kernel import molecule_like

SMALL = dict(hidden_graphs=3, hidden_nodes=3, hidden_dim=3, walk_len=2,
             diff_steps=2, batch_size=8, folds=2)


def small_cfg(**overrides):
    merged = {**SMALL, **overrides}
    return TrainConfig(**merged)


def graph_from(adj, label):
    g = Graph(adj.shape[0], adj, np.zeros((adj.shape[0], 1)), label)
    g.features = degree_features(g)
    return g


def distinct_graphs():
    tri = np.ones((3, 3)) - np.eye(3)
    path = np.zeros((3, 3))
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1.0
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    cycle = np.zeros((4, 4))
    for i in range(4):
        cycle[i, (i + 1) % 4] = cycle[(i + 1) % 4, i] = 1.0
    return [graph_from(tri, 0), graph_from(path, 0),
            graph_from(star, 1), graph_from(cycle, 1)]


# ---------------------------------------------------------------------------
# config and helpers
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(mode="distill")
    with pytest.raises(ConfigError):
        TrainConfig(objective="byol")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(lr=lr)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    for tau in (float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigError):
            TrainConfig(tau=tau)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"dataset": "toy", "temperature": 0.1})
    for bad in ({"folds": True}, {"seed": 1.0}, {"lr": "0.1"}, {"out": 1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig.from_dict(bad)


@pytest.mark.parametrize("augmenter", ["lga", "edge-drop", "identity"])
def test_tau_and_drop_rate_are_checked_whatever_the_augmenter(augmenter):
    with pytest.raises(ConfigError, match=r"EdgeDropAugmenter: rate 2.0 outside \[0,1\]"):
        TrainConfig(augmenter=augmenter, drop_rate=2.0)
    with pytest.raises(ConfigError, match="LgaAugmenter: tau must be positive, got -1.0"):
        TrainConfig(augmenter=augmenter, tau=-1.0)


def test_config_round_trip():
    cfg = small_cfg(tau=1.5, mode="finetune")
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_batch_indices_merges_short_tail():
    order = np.arange(7)
    plain = _batch_indices(order, 3)
    assert [len(b) for b in plain] == [3, 3, 1]
    merged = _batch_indices(order, 3, min_last=2)
    assert [len(b) for b in merged] == [3, 4]
    single = _batch_indices(np.arange(1), 4, min_last=2)
    assert [len(b) for b in single] == [1]


def test_cross_entropy_uniform_and_confident():
    logits = ad.constant(np.zeros((4, 3)))
    labels = np.array([0, 1, 2, 0])
    assert abs(softmax_cross_entropy(logits, labels).item() - np.log(3)) < 1e-12

    confident = np.full((2, 3), -50.0)
    confident[0, 1] = confident[1, 2] = 50.0
    loss = softmax_cross_entropy(ad.constant(confident), np.array([1, 2]))
    assert loss.item() < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_cross_entropy_finite_differences(seed):
    rng = np.random.default_rng(seed)
    logits = ad.parameter(rng.standard_normal((4, 3)))
    labels = rng.integers(0, 3, size=4)
    err = ad.finite_diff_check(lambda: softmax_cross_entropy(logits, labels), [logits])
    assert err <= 1e-4


def test_cross_entropy_survives_a_large_logit_gap():
    # the true class trails by more than exp underflows: probability 0, loss 800
    loss = softmax_cross_entropy(ad.constant([[0.0, 800.0]]), np.array([0]))
    assert loss.item() == 800.0


def test_toy_dataset_shape():
    ds = make_toy_dataset()
    assert len(ds) == 8 and ds.num_classes == 2
    assert sorted(ds.labels().tolist()) == [0] * 4 + [1] * 4


def test_an_unlabeled_graph_is_a_config_error():
    graphs = make_toy_dataset().graphs
    graphs[5].label = None
    with pytest.raises(ConfigError, match="stratified_folds: every graph needs a label"):
        train_supervised(small_cfg(epochs=1), Dataset(graphs, 2, 1, "toy"))


# ---------------------------------------------------------------------------
# supervised training
# ---------------------------------------------------------------------------

def test_supervised_toy_reaches_full_train_accuracy():
    cfg = small_cfg(epochs=120)
    result = train_supervised(cfg, make_toy_dataset())
    assert all(acc == 1.0 for acc in result.train_accuracies)
    assert result.mean_accuracy >= 0.8
    assert len(result.fold_accuracies) == 2
    assert all(0 <= e < cfg.epochs for e in result.best_epochs)
    assert all(len(c) == cfg.epochs for c in result.loss_curves)


def test_supervised_is_deterministic():
    cfg, ds = small_cfg(epochs=15), make_toy_dataset()
    a = train_supervised(cfg, ds)
    b = train_supervised(cfg, ds)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.loss_curves == b.loss_curves
    assert a.mean_accuracy == b.mean_accuracy
    c = train_supervised(small_cfg(epochs=15, seed=1), ds)
    assert c.config["seed"] == 1


def test_supervised_mode_check():
    with pytest.raises(ConfigError):
        train_supervised(small_cfg(epochs=1, mode="finetune"), make_toy_dataset())


def test_result_statistics_recompute():
    cfg = small_cfg(epochs=10)
    result = train_supervised(cfg, make_toy_dataset())
    assert abs(result.mean_accuracy - np.mean(result.fold_accuracies)) < 1e-12
    assert abs(result.std_accuracy - np.std(result.fold_accuracies)) < 1e-12


def test_nan_loss_aborts_with_diagnostic():
    bad = make_toy_dataset()
    for g in bad.graphs:
        g.features = g.features * 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError) as exc:
            train_supervised(small_cfg(epochs=2), dataset=bad)
    assert "fold" in str(exc.value)


def test_a_nan_encoder_weight_ends_in_a_training_error():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=1, mode="finetune")
    rng = np.random.default_rng(0)
    fold_params = [SwagParams.init(cfg.kernel_config(), ds.feature_dim, rng) for _ in range(2)]
    fold_params[0].weight.data[0, 0] = np.nan
    with pytest.raises(TrainingError,
                       match="training loss became non-finite at fold 0, epoch 0"):
        adapt(PretrainResult(fold_params, None, [], {}), cfg, ds)


def test_empty_validation_split_is_a_config_error():
    # two graphs per class and two folds leave one non-test graph per class
    ds = Dataset(make_toy_dataset().graphs[2:6], 2, 1, "toy")
    with pytest.raises(ConfigError, match="fold 0 of 2 has no validation graph"):
        train_supervised(small_cfg(epochs=1), dataset=ds)


def test_empty_validation_split_fails_before_pretraining(optimizers):
    ds = Dataset(make_toy_dataset().graphs[2:6], 2, 1, "toy")
    with pytest.raises(ConfigError, match="fold 0 of 2 has no validation graph"):
        cross_validate(small_cfg(mode="probe", augmenter="identity", epochs=1), dataset=ds)
    # no fold pretrained: no optimizer was built
    assert optimizers == []


def test_checkpoint_prefers_earliest_best_epoch():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=25)
    split = FoldSplit(train_idx=[0, 1, 4, 5], val_idx=[2, 6], test_idx=[3, 7])
    fold = _run_fold(ds, split, cfg, 0)
    best = fold["best_epoch"]
    curve = fold["val_curve"]
    assert curve[best] == max(curve)
    assert all(v < curve[best] for v in curve[:best])


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_pretrain_infonce_identity_separates_distinct_graphs():
    graphs = distinct_graphs()
    ds = Dataset(graphs, 2, 1, "four")
    split = FoldSplit(train_idx=[0, 1, 2, 3], val_idx=[], test_idx=[])
    cfg = small_cfg(epochs=50, augmenter="identity")
    params, head, curve = _pretrain_fold(ds, split, cfg, 0)
    assert min(curve) < np.log(4)
    assert curve[-1] < curve[0]


def test_pretrain_lga_fixed_point_matches_identity():
    complete = np.ones((4, 4)) - np.eye(4)
    graphs = [graph_from(complete, i % 2) for i in range(6)]
    ds = Dataset(graphs, 2, 1, "complete")
    split = FoldSplit(train_idx=list(range(6)), val_idx=[], test_idx=[])
    cfg = small_cfg(epochs=8)
    # small tau keeps the whole spectrum, so every draw returns the anchor
    _, _, lga_curve = _pretrain_fold(ds, split, small_cfg(epochs=8, tau=0.3), 0)
    _, _, id_curve = _pretrain_fold(ds, split, small_cfg(epochs=8, augmenter="identity"), 0)
    np.testing.assert_allclose(lga_curve, id_curve, atol=1e-9)


def test_pretrain_simsiam_loss_bounded():
    cfg = small_cfg(epochs=10, objective="simsiam", augmenter="lga", tau=1.0)
    pre = pretrain_ssl(cfg, make_toy_dataset())
    for curve in pre.loss_curves:
        assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in curve)


def test_pretrain_returns_per_fold_state():
    cfg = small_cfg(epochs=3, augmenter="lga", tau=1.0)
    pre = pretrain_ssl(cfg, make_toy_dataset())
    assert len(pre.fold_params) == cfg.folds
    assert len(pre.fold_heads) == cfg.folds
    assert all(len(c) == 3 for c in pre.loss_curves)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------

def test_probe_trains_head_only_and_fits_toy():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=60, mode="probe")
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=0), ds)
    before = [p.data.copy() for fp in pre.fold_params for p in fp.parameters()]
    result = adapt(pre, cfg, ds)
    after = [p.data for fp in pre.fold_params for p in fp.parameters()]
    for b, a in zip(before, after):
        np.testing.assert_array_equal(b, a)
    assert result.mean_accuracy >= 0.5
    assert result.mode == "probe"


def test_probe_leaves_used_encoder_unchanged():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=5, mode="probe")
    kcfg = cfg.kernel_config()
    from swagnn.kernel import SwagParams
    params = SwagParams.init(kcfg, ds.feature_dim, np.random.default_rng(0))
    snapshot = [p.data.copy() for p in params.parameters()]
    split = FoldSplit(train_idx=[0, 1, 4, 5], val_idx=[2, 6], test_idx=[3, 7])
    _run_fold(ds, split, cfg, 0, params=params)
    for p, snap in zip(params.parameters(), snapshot):
        np.testing.assert_array_equal(p.data, snap)


def test_probe_encodes_each_graph_once_per_fold(monkeypatch):
    import swagnn.training
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=3, mode="probe")
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=0), ds)
    encode, encoded, calls = swagnn.training.encode_numpy, [], []

    def counted(graphs, *args):
        encoded.extend(id(g) for g in graphs)
        calls.append(len(graphs))
        return encode(graphs, *args)
    monkeypatch.setattr(swagnn.training, "encode_numpy", counted)
    adapt(pre, cfg, ds)
    # each fold encodes its train, validation and test graphs once each,
    # in one call over the whole dataset
    assert [encoded.count(id(g)) for g in ds.graphs] == [cfg.folds] * len(ds.graphs)
    assert calls == [len(ds.graphs)] * cfg.folds


def test_a_probe_test_graph_that_overflows_stops_the_fold_before_its_epochs():
    ds = make_toy_dataset()
    split = FoldSplit(train_idx=[0, 1, 4, 5], val_idx=[2, 6], test_idx=[3, 7])
    for i in split.test_idx:
        ds.graphs[i].features = ds.graphs[i].features * 1e200
    with pytest.raises(TrainingError, match="encoding overflowed at fold 1, epoch 0"):
        _run_fold(ds, split, small_cfg(epochs=3, mode="probe"), 1)


def test_accuracy_records_no_tape_node(monkeypatch):
    made = []
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    head = Predictor.init(6, 4, 3, np.random.default_rng(3))
    made.clear()
    encodings = np.random.default_rng(4).standard_normal((5, 6))
    logits = encodings @ head.w1.data + head.b1.data
    logits = np.maximum(logits, 0.0) @ head.w2.data + head.b2.data
    labels = np.array([0, 1, 2, 0, 1])
    accuracy = _accuracy(encodings, labels, head)
    # a Python float with np.mean's bits: reports write its repr
    assert type(accuracy) is float and accuracy == np.mean(logits.argmax(axis=1) == labels)
    assert made == []


@pytest.mark.parametrize("bad_loss, message", [
    (lambda w: ad.scale(ad.reduce_sum(w), float(np.exp(1000.0))),
     "training loss overflowed at fold 3, epoch 1"),
    (lambda w: ad.constant(np.inf), "training loss became non-finite at fold 3, epoch 1")])
def test_a_bad_second_batch_names_its_fold_and_epoch(bad_loss, message):
    w = ad.parameter(np.ones(2))
    opt = ad.Adam([w])
    calls = []

    def batch_loss(batch, epoch):
        calls.append((epoch, len(batch)))
        # the fourth batch is epoch 1's second
        return bad_loss(w) if len(calls) == 4 else ad.reduce_sum(w)
    epochs = swagnn.training._epochs(opt, np.random.default_rng(0), [5, 2, 8, 1], 3, 2,
                                     batch_loss, "training loss", 3)
    with pytest.raises(TrainingError, match=message):
        list(epochs)
    assert calls == [(0, 2), (0, 2), (1, 2), (1, 2)]


def test_epoch_batches_partition_the_given_positions_in_permutation_order():
    positions = np.array([9, 2, 14, 5, 7])
    w = ad.parameter(np.ones(2))
    seen = {}

    def batch_loss(batch, epoch):
        seen.setdefault(epoch, []).append(batch.tolist())
        return ad.reduce_sum(w)
    list(swagnn.training._epochs(ad.Adam([w]), np.random.default_rng(5), positions.tolist(),
                                 3, 2, batch_loss, "training loss", 0))
    rng = np.random.default_rng(5)
    for epoch in range(3):
        order = positions[rng.permutation(len(positions))].tolist()
        assert seen[epoch] == [order[:2], order[2:4], order[4:]]


def sbm_dataset(count, classes=2):
    """``count`` 8-node two-block SBM graphs, labelled in turn 0..classes-1."""
    graphs = []
    for i in range(count):
        g = generate_sbm([4, 4], 0.9, 0.2, seed=[31, i])
        g.label = i % classes
        graphs.append(g)
    return Dataset(graphs, classes, 1, "sbm")


@pytest.mark.parametrize("ds, batch_size, message", [
    (sbm_dataset(12), 1, "fold 0: pretraining loss needs batches of at least 2 graphs, but "
                         "batch_size 1 over 4 training graph(s) forms a batch of 1"),
    (sbm_dataset(2, classes=1), 64, "fold 0: pretraining loss needs batches of at least 2 "
                                    "graphs, but batch_size 64 over 1 training graph(s) forms "
                                    "a batch of 1"),
    # fold 0's two training graphs form one batch, fold 1's four a batch of one
    (sbm_dataset(10), 1, "fold 1: pretraining loss needs batches of at least 2 graphs, but "
                         "batch_size 1 over 4 training graph(s) forms a batch of 1")],
    ids=["batch-size-1", "one-graph-folds", "second-fold"])
def test_infonce_without_a_two_graph_batch_stops_before_the_first_step(
        ds, batch_size, message, optimizers):
    cfg = small_cfg(mode="pretrain", augmenter="edge-drop", epochs=2, batch_size=batch_size)
    with pytest.raises(ConfigError, match=re.escape(message)):
        pretrain_ssl(cfg, ds)
    # every fold is checked before any fold trains: no optimizer was built
    assert optimizers == []
    # with no epoch to run there is no batch to form
    assert pretrain_ssl(dataclasses.replace(cfg, pretrain_epochs=0), ds).loss_curves == [[], []]


def test_train_config_encoder_defaults_are_the_kernel_defaults():
    assert TrainConfig().kernel_config() == KernelConfig()


def test_finetune_updates_encoder():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=5, mode="finetune", augmenter="lga", tau=1.0)
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=2), ds)
    kept = [p.data.copy() for p in pre.fold_params[0].parameters()]
    result = adapt(pre, cfg, ds)
    assert result.mode == "finetune"
    # originals are untouched because adapt works on copies
    for p, k in zip(pre.fold_params[0].parameters(), kept):
        np.testing.assert_array_equal(p.data, k)


def test_adapt_validation():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=2, mode="probe")
    with pytest.raises(ConfigError):
        adapt(None, cfg, ds)
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=1), ds)
    with pytest.raises(ConfigError):
        adapt(pre, dataclasses.replace(cfg, mode="supervised"), ds)
    with pytest.raises(ConfigError):
        adapt(PretrainResult([], [], [], {}), cfg, ds)
    mismatched = PretrainResult(pre.fold_params[:1], pre.fold_heads[:1],
                                pre.loss_curves[:1], pre.config)
    with pytest.raises(ConfigError):
        adapt(mismatched, cfg, ds)


@pytest.fixture
def optimizers(monkeypatch):
    """Every optimizer that training builds, in order."""
    made = []

    class Recorded(ad.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(ad, "Adam", Recorded)
    return made


def assert_views(optimizers, count):
    assert len(optimizers) == count
    for opt in optimizers:
        assert opt.params
        for p in opt.params:
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)


def test_trained_parameters_stay_views_of_their_optimizer(optimizers):
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=3, augmenter="edge-drop", drop_rate=0.3)
    train_supervised(cfg, ds)
    assert_views(optimizers, cfg.folds)
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=2), ds)
    assert_views(optimizers, 2 * cfg.folds)
    probe = adapt(pre, dataclasses.replace(cfg, mode="probe"), ds)
    assert_views(optimizers, 3 * cfg.folds)
    # a fold whose best epoch was an earlier one had it restored in place:
    # its head is the one a run that stops at that epoch ends with
    fold = int(np.argmin(probe.best_epochs))
    best = probe.best_epochs[fold]
    assert best < cfg.epochs - 1
    stopped = adapt(pre, dataclasses.replace(cfg, mode="probe", epochs=best + 1), ds)
    assert stopped.best_epochs[fold] == best
    restored, final = probe.fold_states[fold][1], stopped.fold_states[fold][1]
    for a, b in zip(restored.parameters(), final.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_negative_pretrain_epochs_is_a_config_error():
    cfg = small_cfg(epochs=1, mode="probe")
    for mode in ("probe", "supervised"):  # supervised would not pretrain at all
        with pytest.raises(ConfigError, match="pretrain_epochs must be >= 0, got -3"):
            dataclasses.replace(cfg, mode=mode, pretrain_epochs=-3)
    # 0 keeps the untrained encoder: the control for what pretraining buys
    ds = make_toy_dataset()
    cfg = dataclasses.replace(cfg, pretrain_epochs=0)
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds)
    assert pre.loss_curves == [[], []]
    assert cross_validate(cfg, ds).mode == "probe"


def molecule_dataset(seed, count=24):
    rng = np.random.default_rng(seed)
    graphs = [molecule_like(rng, int(n)) for n in rng.integers(10, 21, count)]
    for i, g in enumerate(graphs):
        g.label = i % 2
    return Dataset(graphs, 2, 7, "molecules")


def run_bytes(pre, result):
    """Every array a pretrain-then-adapt run produces, as bytes."""
    models = list(zip(pre.fold_params, pre.fold_heads)) + list(result.fold_states)
    return [p.data.tobytes() for pair in models for model in pair for p in model.parameters()]


# LGA at tau = 2.02 shares every positive, at 0.5 draws every one, at 0.65 both
KEPT_RANKS = {2.02: {0}, 0.5: {2, 3, 4}, 0.65: {0, 1, 2}}


@pytest.mark.parametrize("augmenter, tau", [("edge-drop", 2.02), ("lga", 2.02), ("lga", 0.5),
                                            ("lga", 0.65)])
def test_warm_graph_caches_give_the_bits_of_cold_ones(augmenter, tau, monkeypatch):
    ds = molecule_dataset(5)
    # an augmenter of its own warms every estimate; the runs' augmenters read it
    assert {LgaAugmenter(tau, seed=7).kept_rank(g) for g in ds.graphs} == KEPT_RANKS[tau]
    cfg = small_cfg(mode="finetune", augmenter=augmenter, tau=tau, epochs=2, folds=3)
    kernel = cfg.kernel_config()
    runs = []
    # cold graphs; then the warmed ones, whose second run finds every
    # anchor's diffusion and walks cached too
    for data in (molecule_dataset(5), ds, ds):
        pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain", pretrain_epochs=2), data)
        result = adapt(pre, cfg, data)
        runs.append((pre.loss_curves, result.loss_curves, result.val_curves,
                     result.fold_accuracies, run_bytes(pre, result)))
        assert all(kernel.diffusion in g._derived and
                   ("walks", kernel.diffusion, kernel.max_walk) in g._derived for g in data.graphs)
        # from here on every LGA estimate must come from the store
        monkeypatch.setattr(augment_module, "usvt_with_rank", None)
    assert runs[0] == runs[1] == runs[2]
    monkeypatch.undo()
    # each tau keeps its own entry on a graph
    for t, ranks in KEPT_RANKS.items():
        assert {LgaAugmenter(t).kept_rank(g) for g in ds.graphs} == ranks
    assert all(("lga", t) in g._derived for g in ds.graphs for t in KEPT_RANKS)


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def test_ablate_tau_shares_folds_and_warns_outside_guidance():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=10)
    results = ablate(dataclasses.replace(cfg, pretrain_epochs=2), "tau", [0.3, 2.02], ds)
    assert len(results) == 2
    assert all(r.mode == "finetune" for r in results)
    assert results[0].config["seed"] == results[1].config["seed"]
    with pytest.warns(UserWarning):
        ablate(dataclasses.replace(cfg, pretrain_epochs=1), "tau", [10.0], ds)


def test_ablate_num_hidden_supervised():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=100)
    results = ablate(cfg, "num_hidden", [2, 8], ds)
    assert [r.config["hidden_graphs"] for r in results] == [2, 8]
    for r in results:
        assert all(acc == 1.0 for acc in r.train_accuracies)


@pytest.mark.parametrize("parameter, values", [("num_hidden", [2, 0]), ("num_hidden", [2, "x"]),
                                               ("tau", [10.0, float("nan")]), ("tau", [])])
def test_ablate_checks_every_value_before_the_first_run(monkeypatch, recwarn, parameter,
                                                        values):
    calls = []
    monkeypatch.setattr(swagnn.training, "cross_validate", lambda *args: calls.append(args))
    with pytest.raises(ConfigError):
        ablate(small_cfg(epochs=1), parameter, values, make_toy_dataset())
    assert calls == []
    assert len(recwarn) == 0  # nor is tau=10.0 warned about


def test_pretrain_epochs_field_sets_the_pretraining_budget():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=3, mode="pretrain", augmenter="identity")
    assert [len(curve) for curve in pretrain_ssl(cfg, ds).loss_curves] == [3, 3]
    pre = pretrain_ssl(dataclasses.replace(cfg, pretrain_epochs=1), ds)
    assert pre.config["pretrain_epochs"] == 1
    assert [len(curve) for curve in pre.loss_curves] == [1, 1]
    probe = dataclasses.replace(cfg, mode="probe", pretrain_epochs=2)
    assert cross_validate(probe, ds).config["pretrain_epochs"] == 2
    untrained = dataclasses.replace(probe, pretrain_epochs=0)
    assert [r.config["pretrain_epochs"] for r in ablate(untrained, "num_hidden", [2], ds)] == [0]
    with pytest.raises(ConfigError, match="pretrain_epochs must be >= 0, got -1"):
        small_cfg(pretrain_epochs=-1)


@pytest.fixture
def fold_lists(monkeypatch):
    """The fold count of every ``stratified_folds`` call, in order."""
    made = []

    def counted(ds, k, seed):
        made.append(k)
        return stratified_folds(ds, k, seed)
    monkeypatch.setattr(swagnn.training, "stratified_folds", counted)
    return made


def test_a_run_makes_its_fold_list_once(fold_lists):
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=1, mode="probe", augmenter="identity", pretrain_epochs=1)
    cross_validate(cfg, ds)
    assert fold_lists == [2]
    ablate(cfg, "tau", [0.5, 2.02], ds)
    assert fold_lists == [2] * 3
    # and so does each public step
    fold_lists.clear()
    train_supervised(dataclasses.replace(cfg, mode="supervised"), ds)
    adapt(pretrain_ssl(cfg, ds), cfg, ds)
    assert fold_lists == [2] * 3


def test_ablate_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        ablate(small_cfg(epochs=1), "alpha", [0.1], make_toy_dataset())
