"""Acceptance suite: nine desk-scale criteria, one test per criterion.

Each test prints a single summary line; criteria that need the MUTAG
benchmark skip with instructions when the data directory is absent
(see README for how to place it).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.augment import (LgaAugmenter, generate_sbm, sbm_probability_matrix,
                            usvt_estimate)
from swagnn.graphs import Graph, degree_features, write_tu_dataset
from swagnn.kernel import (HiddenGraph, KernelConfig, SwagParams, encode_batch,
                           exact_rw_kernel, hidden_adjacency, smoothed_kernel,
                           swag_encode)
from swagnn.ssl import SSLBatch, TwoLayerMLP, cosine_rows, infonce_loss, noncontrastive_loss
from swagnn.training import (TrainConfig, ablate, adapt, pretrain_ssl,
                             softmax_cross_entropy, train_supervised)

DATA_ROOT = os.environ.get("SWAG_DATA_DIR",
                           os.path.join(os.path.dirname(__file__), "..", "data"))
MUTAG_DIR = os.path.join(DATA_ROOT, "MUTAG")
MUTAG_MISSING = not os.path.isfile(os.path.join(MUTAG_DIR, "MUTAG_A.txt"))
MUTAG_REASON = (f"MUTAG not found at {MUTAG_DIR}; download the TU-format "
                "files there (or set SWAG_DATA_DIR) to run this criterion")


def random_graph(rng, max_nodes: int, dim: int) -> Graph:
    n = int(rng.integers(2, max_nodes + 1))
    adj = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    adj[iu] = (rng.random(len(iu[0])) < rng.uniform(0.2, 0.8)).astype(float)
    adj += adj.T
    return Graph(n, adj, rng.standard_normal((n, dim)))


def binary_hidden(g: Graph) -> HiddenGraph:
    # saturated logits make the effective adjacency exactly 0/1
    raw = np.where(g.adjacency > 0, 1500.0, -1500.0)
    return HiddenGraph(ad.parameter(raw), ad.parameter(g.features.copy()))


def relative_gap(value: float, oracle: float) -> float:
    denom = max(abs(value), abs(oracle))
    return abs(value - oracle) / denom if denom > 0 else 0.0


def test_criterion_1_kernel_matches_walk_counting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        g1 = random_graph(rng, 6, dim)
        g2 = random_graph(rng, 6, dim)
        value = smoothed_kernel(g1.adjacency, g1.features,
                                binary_hidden(g2), p).item()
        worst = max(worst, relative_gap(value, exact_rw_kernel(g1, g2, p)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"criterion 1: PASS (200 pairs, max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_trace_matches_four_index_sum():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 6))
        d_h = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        b = rng.standard_normal((n, n))
        xm = rng.standard_normal((n, d_h))
        hidden = HiddenGraph(ad.parameter(rng.standard_normal((m, m))),
                             ad.parameter(rng.standard_normal((m, d_h))))
        value = smoothed_kernel(b, xm, hidden, p).item()

        bp = np.linalg.matrix_power(b, p)
        hp = np.linalg.matrix_power(hidden_adjacency(hidden).data, p)
        s = xm @ hidden.hidden_features.data.T
        oracle = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(m):
                    for l in range(m):
                        oracle += bp[i, j] * s[j, k] * hp[k, l] * s[i, l]
        worst = max(worst, relative_gap(value, oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"criterion 2: PASS (200 instances, max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_loss_pipelines_pass_finite_differences():
    start = time.perf_counter()
    kcfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=3, max_walk=2)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(303 + seed)
        graphs = [random_graph(rng, 4, 2) for _ in range(4)]
        labels = np.array([0, 1, 0, 1])
        augmenter = LgaAugmenter(tau=0.5, seed=seed)
        positives = [augmenter.augment(g, i, epoch=0)
                     for i, g in enumerate(graphs)]
        params = SwagParams.init(kcfg, 2, rng)

        classifier = TwoLayerMLP.init(kcfg.output_dim, 4, 2, rng)
        sup_params = params.parameters() + classifier.parameters()

        def supervised():
            logits = classifier(encode_batch(graphs, params, kcfg))
            return softmax_cross_entropy(logits, labels)

        worst = max(worst, ad.finite_diff_check(supervised, sup_params))

        head = TwoLayerMLP.init(kcfg.output_dim, 4, 4, rng)
        ssl_params = params.parameters() + head.parameters()

        def contrastive():
            return infonce_loss(SSLBatch(encode_batch(graphs, params, kcfg),
                                         encode_batch(positives, params, kcfg)),
                                head)

        worst = max(worst, ad.finite_diff_check(contrastive, ssl_params))

        # the stopped branch is frozen to data so central differences see
        # the same function the analytic gradient differentiates
        for w in ssl_params:
            w.grad = None
        real = noncontrastive_loss(
            SSLBatch(encode_batch(graphs, params, kcfg),
                     encode_batch(positives, params, kcfg)), head)
        ad.backward(real)
        grads_real = [w.grad.copy() if w.grad is not None else np.zeros_like(w.data)
                      for w in ssl_params]
        frozen = head(encode_batch(positives, params, kcfg)).data.copy()

        def frozen_branch():
            z_a = head(encode_batch(graphs, params, kcfg))
            return ad.scale(cosine_rows(z_a, ad.constant(frozen)).mean(), -1.0)

        for w in ssl_params:
            w.grad = None
        ad.backward(frozen_branch())
        for w, expect in zip(ssl_params, grads_real):
            got = w.grad if w.grad is not None else np.zeros_like(w.data)
            assert np.max(np.abs(got - expect)) <= 1e-14
        worst = max(worst, ad.finite_diff_check(frozen_branch, ssl_params))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 120.0
    print(f"criterion 3: PASS (3 pipelines x 20 seeds, max rel err {worst:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_4_encoding_is_permutation_invariant():
    rng = np.random.default_rng(404)
    kcfg = KernelConfig(num_hidden=8, hidden_nodes=5, hidden_dim=8, max_walk=3)
    params = SwagParams.init(kcfg, 3, rng)
    worst = 0.0
    for _ in range(20):
        g = random_graph(rng, 8, 3)
        base = swag_encode(g, params, kcfg).data
        scale = max(1.0, float(np.max(np.abs(base))))
        for _ in range(50):
            perm = rng.permutation(g.n)
            relabeled = swag_encode(g.permuted(perm), params, kcfg).data
            worst = max(worst, float(np.max(np.abs(base - relabeled))) / scale)
    assert worst <= 1e-8
    print(f"criterion 4: PASS (20 graphs x 50 relabelings, max dev {worst:.2e})")


def test_criterion_5_usvt_recovers_sbm_probabilities():
    start = time.perf_counter()
    blocks = [100, 100]
    theta = sbm_probability_matrix(blocks, 0.8, 0.2)
    maes = []
    for seed in range(10):
        g = generate_sbm(blocks, 0.8, 0.2, seed=[505, seed])
        maes.append(float(np.mean(np.abs(usvt_estimate(g.adjacency, 2.02) - theta))))
    elapsed = time.perf_counter() - start
    mean_mae = float(np.mean(maes))
    assert mean_mae <= 0.1
    assert elapsed < 120.0
    print(f"criterion 5: PASS (mean MAE {mean_mae:.4f} over 10 seeds, {elapsed:.1f}s)")


def _mutag_config(**overrides) -> TrainConfig:
    base = dict(dataset="MUTAG", data_dir=MUTAG_DIR, hidden_graphs=16,
                hidden_nodes=10, hidden_dim=32, walk_len=3, diff_steps=3,
                epochs=200, folds=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


_mutag_runs = {}


def _mutag_supervised():
    if "supervised" not in _mutag_runs:
        _mutag_runs["supervised"] = train_supervised(_mutag_config())
    return _mutag_runs["supervised"]


@pytest.mark.skipif(MUTAG_MISSING, reason=MUTAG_REASON)
def test_criterion_6_mutag_supervised_accuracy():
    result = _mutag_supervised()
    assert result.mean_accuracy >= 0.80
    assert result.wall_time <= 20 * 60
    print(f"criterion 6: PASS (mean accuracy {result.mean_accuracy:.4f} "
          f"+/- {result.std_accuracy:.4f}, {result.wall_time:.0f}s)")


@pytest.mark.skipif(MUTAG_MISSING, reason=MUTAG_REASON)
def test_criterion_7_pretraining_does_not_hurt():
    supervised = _mutag_supervised()
    start = time.perf_counter()
    cfg = _mutag_config(mode="finetune", augmenter="lga", tau=2.02, pretrain_epochs=100)
    pretrained = pretrain_ssl(cfg)
    finetuned = adapt(pretrained, cfg)
    elapsed = time.perf_counter() - start
    assert finetuned.mean_accuracy >= supervised.mean_accuracy - 0.02
    assert elapsed <= 40 * 60
    print(f"criterion 7: PASS (finetuned {finetuned.mean_accuracy:.4f} vs "
          f"supervised {supervised.mean_accuracy:.4f}, {elapsed:.0f}s)")


def test_criterion_8_generic_tu_pipeline_runs_end_to_end(tmp_path):
    # the large benchmark tables are out of desk-scale reach and not
    # acceptance-gated; this verifies the identical load/train path they
    # would use, on a synthetic dataset in the same on-disk format
    graphs = []
    for n in (4, 5, 6, 7) * 2:
        dense = np.ones((n, n)) - np.eye(n)
        sparse = np.zeros((n, n))
        for i in range(n - 1):
            sparse[i, i + 1] = sparse[i + 1, i] = 1.0
        for label, adj in ((0, dense), (1, sparse)):
            g = Graph(n, adj, np.zeros((n, 1)), label)
            g.features = degree_features(g)
            graphs.append(g)
    write_tu_dataset(graphs, str(tmp_path), "synthetic")
    cfg = TrainConfig(dataset="synthetic", data_dir=str(tmp_path),
                      hidden_graphs=2, hidden_nodes=4, hidden_dim=4,
                      walk_len=2, epochs=3, folds=2, seed=0)
    result = train_supervised(cfg)
    assert len(result.fold_accuracies) == 2
    print("criterion 8: PASS (not gated; TU-format pipeline runs end to end)")


def test_criterion_9_ablations_keep_training_accuracy_full():
    start = time.perf_counter()
    base = TrainConfig(dataset="toy", hidden_graphs=8, hidden_nodes=4,
                       hidden_dim=8, walk_len=2, diff_steps=2, epochs=150,
                       batch_size=8, folds=2, seed=0)
    tau_values = [0.3, 2.02, 4.2]
    m_values = [2, 8, 24]
    tau_results = ablate(dataclasses.replace(base, pretrain_epochs=10), "tau", tau_values)
    m_results = ablate(base, "num_hidden", m_values)
    for name, values, results in (("tau", tau_values, tau_results),
                                  ("num_hidden", m_values, m_results)):
        for value, result in zip(values, results):
            assert all(acc == 1.0 for acc in result.train_accuracies), \
                f"{name}={value}: train accuracies {result.train_accuracies}"
    elapsed = time.perf_counter() - start
    print(f"criterion 9: PASS (6 ablation runs at full training accuracy, "
          f"{elapsed:.1f}s)")
