import json
import os

import numpy as np
import pytest

from swagnn.augment import LgaAugmenter
from swagnn.errors import ConfigError, LoadError
from swagnn.graphs import Dataset, Graph, load_tu_dataset
from swagnn import autodiff as ad
from swagnn.kernel import HiddenGraph, KernelConfig, SwagParams, hidden_adjacency
from swagnn.reporting import (_RESULT_FIELDS, _RESULT_TYPES, ablation_csv, augment_dataset,
                              export_hidden_graphs, fold_csv, load_checkpoint, load_result,
                              save_checkpoint, save_result, summarize)
from swagnn.ssl import ProjectionHead
from swagnn.training import (RunResult, TrainConfig, make_toy_dataset,
                             train_supervised)
from test_cli import read_json


def small_cfg(**kw):
    base = dict(dataset="toy", hidden_graphs=2, hidden_nodes=4, hidden_dim=8,
                walk_len=2, epochs=3, folds=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def toy_result():
    return train_supervised(small_cfg())


def test_result_round_trip(toy_result, tmp_path):
    path = str(tmp_path / "result.json")
    save_result(toy_result, path)
    back = load_result(path)
    assert back.fold_accuracies == toy_result.fold_accuracies
    assert back.mean_accuracy == toy_result.mean_accuracy
    assert back.config == toy_result.config
    assert back.best_epochs == toy_result.best_epochs
    assert back.fold_states is None


def test_load_result_checks_the_type_of_every_field():
    assert set(_RESULT_TYPES) == set(_RESULT_FIELDS)


def test_load_result_missing_file(tmp_path):
    with pytest.raises(LoadError):
        load_result(str(tmp_path / "nope.json"))


def test_load_result_missing_field(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"mean_accuracy": 1.0}, fh)
    with pytest.raises(LoadError):
        load_result(path)


def test_fold_csv_exact_values(toy_result, tmp_path):
    path = str(tmp_path / "folds.csv")
    fold_csv(toy_result, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "fold,accuracy,best_epoch,seconds"
    assert len(lines) == 1 + len(toy_result.fold_accuracies)
    first = lines[1].split(",")
    assert int(first[0]) == 0
    # repr round trip keeps the accuracy bit-exact
    assert float(first[1]) == toy_result.fold_accuracies[0]
    assert int(first[2]) == toy_result.best_epochs[0]


def test_ablation_csv(tmp_path):
    results = [RunResult([1.0], 1.0, 0.0, 0.1, {}, "supervised",
                         [], [], [1.0], [1.0], [0], [0.1]),
               RunResult([0.5], 0.5, 0.0, 0.1, {}, "supervised",
                         [], [], [0.5], [0.5], [0], [0.1])]
    path = str(tmp_path / "ablate.csv")
    ablation_csv([0.3, 2.02], results, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "value,mean_accuracy,std_accuracy"
    assert lines[1] == "0.3,1.0,0.0"
    assert lines[2] == "2.02,0.5,0.0"


def test_summarize_mentions_each_fold(toy_result):
    text = summarize(toy_result)
    assert "mode: supervised" in text
    assert "fold 0" in text and "fold 1" in text
    assert f"{toy_result.mean_accuracy:.4f}" in text


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg()
    kcfg = cfg.kernel_config()
    rng = np.random.default_rng(3)
    fold_params = [SwagParams.init(kcfg, input_dim=2, rng=rng)
                   for _ in range(2)]
    fold_heads = [ProjectionHead.for_encoder(kcfg.output_dim, rng)
                  for _ in range(2)]
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, fold_params, fold_heads, cfg.to_dict())
    back_params, back_heads, back_cfg = load_checkpoint(path)
    assert back_cfg == cfg.to_dict()
    assert len(back_params) == 2 and len(back_heads) == 2
    for orig, back in zip(fold_params, back_params):
        for a, b in zip(orig.parameters(), back.parameters()):
            assert np.array_equal(a.data, b.data)
    for orig, back in zip(fold_heads, back_heads):
        for a, b in zip(orig.parameters(), back.parameters()):
            assert np.array_equal(a.data, b.data)


def test_a_gap_in_the_fold_numbers_is_a_load_error(tmp_path):
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    fold_params = [SwagParams.init(cfg.kernel_config(), input_dim=2, rng=rng)
                   for _ in range(2)]
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, fold_params, None, cfg.to_dict())
    with np.load(path) as archive:
        entries = {key.replace("fold0/", "fold2/", 1): archive[key] for key in archive.files}
    np.savez(path, **entries)
    with pytest.raises(LoadError, match=r"holds folds \[1, 2\], not folds 0 to 1"):
        load_checkpoint(path)


def test_checkpoint_without_heads(tmp_path):
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    fold_params = [SwagParams.init(cfg.kernel_config(), input_dim=2, rng=rng)]
    path = str(tmp_path / "enc.npz")
    save_checkpoint(path, fold_params, None, cfg.to_dict())
    back_params, back_heads, _ = load_checkpoint(path)
    assert back_heads is None
    assert len(back_params) == 1


# written by the per-hidden-graph layout that came before the stacked bank:
# `swagnn pretrain --dataset toy --hidden-graphs 2 --hidden-nodes 3
# --hidden-dim 2 --walk-len 2 --epochs 1 --folds 2 --batch-size 8 --seed 0
# --augmenter identity --out ckpt` at commit 799efbc
PER_GRAPH_CHECKPOINT = os.path.join(os.path.dirname(__file__), "fixtures",
                                    "per_graph_checkpoint.npz")


def test_a_per_graph_checkpoint_loads_bit_for_bit():
    with np.load(PER_GRAPH_CHECKPOINT) as archive:
        entries = {key: archive[key] for key in archive.files}
    config = TrainConfig.from_dict(json.loads(str(entries["__config__"])))
    fold_params, fold_heads, _ = load_checkpoint(PER_GRAPH_CHECKPOINT, expect=config)
    assert len(fold_params) == len(fold_heads) == 2
    for fold, (params, head) in enumerate(zip(fold_params, fold_heads)):
        for part, state in (("enc", params.to_state()), ("head", head.to_state())):
            stored = {key.split("/")[2]: value for key, value in entries.items()
                      if key.startswith(f"fold{fold}/{part}/")}
            assert state.keys() == stored.keys()
            for key, value in state.items():
                assert value.dtype == stored[key].dtype
                assert value.tobytes() == stored[key].tobytes()


def test_a_checkpoint_from_before_pretrain_epochs_loads():
    with np.load(PER_GRAPH_CHECKPOINT) as archive:
        stored = json.loads(str(archive["__config__"]))
    assert "pretrain_epochs" not in stored
    config = TrainConfig.from_dict(stored)
    assert config.pretrain_epochs is None
    # the pretraining budget does not shape the encoder, so any budget fits
    expect = TrainConfig.from_dict({**stored, "pretrain_epochs": 3})
    fold_params, _, loaded = load_checkpoint(PER_GRAPH_CHECKPOINT, expect=expect)
    assert len(fold_params) == 2 and loaded == stored


def test_load_checkpoint_missing(tmp_path):
    with pytest.raises(LoadError):
        load_checkpoint(str(tmp_path / "nope.npz"))


def test_trained_state_is_checkpointable(toy_result, tmp_path):
    params, predictor = toy_result.fold_states[0]
    path = str(tmp_path / "trained.npz")
    save_checkpoint(path, [params], [predictor], toy_result.config)
    back_params, back_heads, _ = load_checkpoint(path)
    assert np.array_equal(back_params[0].weight.data, params.weight.data)
    assert np.array_equal(back_heads[0].w1.data, predictor.w1.data)


def test_export_hidden_graphs(tmp_path):
    cfg = KernelConfig(num_hidden=3, hidden_nodes=4, hidden_dim=8, max_walk=2)
    params = SwagParams.init(cfg, input_dim=2, rng=np.random.default_rng(0))
    out = str(tmp_path / "hidden")
    written = export_hidden_graphs(params, threshold=0.5, out=out)
    assert len(written) == 6
    for i in range(3):
        weights = np.array(read_json(os.path.join(out, f"hidden_{i}.json"))["weights"])
        expect = hidden_adjacency(HiddenGraph(ad.constant(params.raw.data[i]),
                                              ad.constant(params.features.data[i]))).data
        assert np.max(np.abs(weights - expect)) <= 1e-12
        with open(os.path.join(out, f"hidden_{i}.dot")) as fh:
            dot = fh.read()
        # every node is declared even when isolated
        for u in range(4):
            assert f"  {u};" in dot
        kept = dot.count(" -- ")
        assert kept == int(np.sum(np.triu(expect, 1) >= 0.5))


def test_export_respects_threshold(tmp_path):
    cfg = KernelConfig(num_hidden=1, hidden_nodes=4, hidden_dim=8, max_walk=2)
    params = SwagParams.init(cfg, input_dim=2, rng=np.random.default_rng(0))
    out_all = str(tmp_path / "all")
    out_none = str(tmp_path / "none")
    export_hidden_graphs(params, threshold=0.0, out=out_all)
    export_hidden_graphs(params, threshold=1.1, out=out_none)
    with open(os.path.join(out_all, "hidden_0.dot")) as fh:
        assert fh.read().count(" -- ") == 4 * 3 // 2
    with open(os.path.join(out_none, "hidden_0.dot")) as fh:
        assert fh.read().count(" -- ") == 0


def edge_set(g):
    rows, cols = np.nonzero(np.triu(g.adjacency, 1))
    return set(zip(rows.tolist(), cols.tolist()))


def test_augment_dataset_identity_preserves_edges(tmp_path):
    ds = make_toy_dataset()
    cfg = small_cfg(augmenter="identity", out=str(tmp_path / "ident"))
    manifest_path = augment_dataset(cfg, dataset=ds)
    back = load_tu_dataset(cfg.out, "toy")
    assert len(back) == len(ds)
    for orig, aug in zip(ds.graphs, back.graphs):
        assert edge_set(orig) == edge_set(aug)
        assert aug.label == orig.label
    manifest = read_json(manifest_path)
    assert manifest["augmenter"] == "identity"
    assert manifest["kept_ranks"] == [None] * len(ds)


def test_augment_dataset_lga_manifest(tmp_path):
    ds = make_toy_dataset()
    cfg = small_cfg(augmenter="lga", tau=0.3, out=str(tmp_path / "lga"))
    manifest_path = augment_dataset(cfg, dataset=ds)
    manifest = read_json(manifest_path)
    assert manifest["tau"] == 0.3
    assert manifest["seed"] == cfg.seed
    assert len(manifest["kept_ranks"]) == len(ds)
    assert all(r >= 1 for r in manifest["kept_ranks"])
    back = load_tu_dataset(cfg.out, "toy")
    assert len(back) == len(ds)


def test_augment_matches_augmenter_draw(tmp_path):
    # the written graphs are exactly the epoch-0 draws of the same augmenter
    ds = make_toy_dataset()
    cfg = small_cfg(augmenter="lga", tau=1.0, seed=7, out=str(tmp_path / "draw"))
    augment_dataset(cfg, dataset=ds)
    back = load_tu_dataset(cfg.out, "toy")
    direct = LgaAugmenter(tau=1.0, seed=7)
    for index, g in enumerate(ds.graphs):
        expect = direct.augment(g, index, epoch=0)
        assert np.array_equal(back.graphs[index].adjacency, expect.adjacency)


def test_augment_complete_graphs_small_tau_is_fixed_point(tmp_path):
    # a complete graph has a rank-one adjacency plus a diagonal shift; with a
    # low threshold the estimate recovers every edge probability as 1, so
    # sampling returns the same graph
    graphs = []
    for n in (4, 5, 6):
        a = np.ones((n, n)) - np.eye(n)
        graphs.append(Graph(n, a, np.ones((n, 1)), label=0))
    ds = Dataset(graphs, num_classes=1, feature_dim=1, name="complete")
    cfg = small_cfg(augmenter="lga", tau=0.3, out=str(tmp_path / "comp"))
    augment_dataset(cfg, dataset=ds)
    back = load_tu_dataset(cfg.out, "complete")
    for orig, aug in zip(ds.graphs, back.graphs):
        assert np.array_equal(orig.adjacency, aug.adjacency)


def test_augment_huge_tau_empties_graphs(tmp_path):
    ds = make_toy_dataset()
    cfg = small_cfg(augmenter="lga", tau=1e6, out=str(tmp_path / "huge"))
    manifest_path = augment_dataset(cfg, dataset=ds)
    manifest = read_json(manifest_path)
    assert manifest["kept_ranks"] == [0] * len(ds)
    back = load_tu_dataset(cfg.out, "toy")
    assert all(g.num_edges() == 0 for g in back.graphs)


def test_augment_requires_out():
    with pytest.raises(ConfigError):
        augment_dataset(small_cfg(), dataset=make_toy_dataset())
