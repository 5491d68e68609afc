import dataclasses

import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.augment import IdentityAugmenter, LgaAugmenter
from swagnn.errors import ConfigError, TrainingError
from swagnn.graphs import Dataset, FoldSplit, Graph, degree_features
from swagnn.training import (
    PretrainResult,
    Predictor,
    RunResult,
    TrainConfig,
    _batch_indices,
    _pretrain_fold,
    _run_fold,
    ablate,
    adapt,
    make_toy_dataset,
    pretrain_ssl,
    softmax_cross_entropy,
    train_supervised,
)

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


# ---------------------------------------------------------------------------
# supervised training
# ---------------------------------------------------------------------------

def test_supervised_toy_reaches_full_train_accuracy():
    cfg = small_cfg(epochs=120)
    result = train_supervised(cfg)
    assert all(acc == 1.0 for acc in result.train_accuracies)
    assert result.mean_accuracy >= 0.8
    assert len(result.fold_accuracies) == 2
    assert all(0 <= e < cfg.epochs for e in result.best_epochs)
    assert all(len(c) == cfg.epochs for c in result.loss_curves)


def test_supervised_is_deterministic():
    cfg = small_cfg(epochs=15)
    a = train_supervised(cfg)
    b = train_supervised(cfg)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.loss_curves == b.loss_curves
    assert a.mean_accuracy == b.mean_accuracy
    c = train_supervised(small_cfg(epochs=15, seed=1))
    assert c.config["seed"] == 1


def test_supervised_mode_check():
    with pytest.raises(ConfigError):
        train_supervised(small_cfg(epochs=1, mode="finetune"))


def test_result_statistics_recompute():
    cfg = small_cfg(epochs=10)
    result = train_supervised(cfg)
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


def test_empty_validation_split_is_a_config_error():
    # two graphs per class and two folds leave one non-test graph per class
    ds = Dataset(make_toy_dataset().graphs[2:6], 2, 1, "toy")
    with pytest.raises(ConfigError, match="fold 0 of 2 has no validation graph"):
        train_supervised(small_cfg(epochs=1), dataset=ds)


def test_checkpoint_prefers_earliest_best_epoch():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=25)
    split = FoldSplit(train_idx=[0, 1, 4, 5], val_idx=[2, 6], test_idx=[3, 7])
    fold = _run_fold(ds, split, cfg, cfg.kernel_config(), 0)
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
    params, head, curve = _pretrain_fold(ds, split, cfg, cfg.kernel_config(), 0,
                                         IdentityAugmenter(), epochs=50)
    assert min(curve) < np.log(4)
    assert curve[-1] < curve[0]


def test_pretrain_lga_fixed_point_matches_identity():
    complete = np.ones((4, 4)) - np.eye(4)
    graphs = [graph_from(complete, i % 2) for i in range(6)]
    ds = Dataset(graphs, 2, 1, "complete")
    split = FoldSplit(train_idx=list(range(6)), val_idx=[], test_idx=[])
    cfg = small_cfg(epochs=8)
    kcfg = cfg.kernel_config()
    # small tau keeps the whole spectrum, so every draw returns the anchor
    _, _, lga_curve = _pretrain_fold(ds, split, cfg, kcfg, 0,
                                     LgaAugmenter(tau=0.3, seed=cfg.seed), epochs=8)
    _, _, id_curve = _pretrain_fold(ds, split, cfg, kcfg, 0,
                                    IdentityAugmenter(), epochs=8)
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
    assert len(pre.folds) == cfg.folds
    assert all(len(c) == 3 for c in pre.loss_curves)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------

def test_probe_trains_head_only_and_fits_toy():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=60, mode="probe")
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds, epochs=0)
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
    _run_fold(ds, split, cfg, kcfg, 0, params=params)
    for p, snap in zip(params.parameters(), snapshot):
        np.testing.assert_array_equal(p.data, snap)


def test_probe_encodes_each_graph_once_per_fold(monkeypatch):
    import swagnn.training
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=3, mode="probe")
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds, epochs=0)
    encode, encoded = swagnn.training.encode_numpy, []

    def counted(graphs, *args):
        encoded.extend(id(g) for g in graphs)
        return encode(graphs, *args)
    monkeypatch.setattr(swagnn.training, "encode_numpy", counted)
    adapt(pre, cfg, ds)
    # each fold encodes its train, validation and test graphs once each
    assert [encoded.count(id(g)) for g in ds.graphs] == [cfg.folds] * len(ds.graphs)


def test_finetune_updates_encoder():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=5, mode="finetune", augmenter="lga", tau=1.0)
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds, epochs=2)
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
    pre = pretrain_ssl(dataclasses.replace(cfg, mode="pretrain"), ds, epochs=1)
    with pytest.raises(ConfigError):
        adapt(pre, dataclasses.replace(cfg, mode="supervised"), ds)
    with pytest.raises(ConfigError):
        adapt(PretrainResult([], [], [], {}), cfg, ds)
    mismatched = PretrainResult(pre.fold_params[:1], pre.fold_heads[:1],
                                pre.loss_curves[:1], pre.config)
    with pytest.raises(ConfigError):
        adapt(mismatched, cfg, ds)


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def test_ablate_tau_shares_folds_and_warns_outside_guidance():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=10)
    results = ablate(cfg, "tau", [0.3, 2.02], ds, pretrain_epochs=2)
    assert len(results) == 2
    assert all(r.mode == "finetune" for r in results)
    assert results[0].config["seed"] == results[1].config["seed"]
    with pytest.warns(UserWarning):
        ablate(cfg, "tau", [10.0], ds, pretrain_epochs=1)


def test_ablate_num_hidden_supervised():
    ds = make_toy_dataset()
    cfg = small_cfg(epochs=100)
    results = ablate(cfg, "num_hidden", [2, 8], ds)
    assert [r.config["hidden_graphs"] for r in results] == [2, 8]
    for r in results:
        assert all(acc == 1.0 for acc in r.train_accuracies)


def test_ablate_rejects_unknown_parameter():
    with pytest.raises(ConfigError):
        ablate(small_cfg(epochs=1), "alpha", [0.1], make_toy_dataset())
