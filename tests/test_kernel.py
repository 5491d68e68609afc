import dataclasses
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.autodiff import _accumulate, _as_tensor, _node
from swagnn.errors import ConfigError, ContractError
from swagnn.augment import LgaAugmenter
from swagnn.graphs import Dataset, DiffusionConfig, Graph, diffuse
from swagnn.kernel import (
    HiddenGraph,
    KernelConfig,
    SwagParams,
    encode_batch,
    _walk_statistics,
    encode_numpy,
    exact_rw_kernel,
    hidden_adjacency,
    smoothed_kernel,
    swag_encode,
)
from test_autodiff import check_grads


def random_graph(rng, n, d=2, edge_p=0.5):
    a = np.triu((rng.random((n, n)) < edge_p).astype(float), 1)
    a = a + a.T
    return Graph(n, a, rng.standard_normal((n, d)))


def sbm_graph(rng, n, d, blocks=3, intra=0.9, inter=0.05):
    """A stochastic-block-model graph with equal blocks, the regime where
    the encoder's products run BLAS-bound."""
    member = np.arange(n) * blocks // n
    p = np.where(member[:, None] == member[None, :], intra, inter)
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    return Graph(n, a + a.T, rng.standard_normal((n, d)))


def k2(features=None):
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.ones((2, 1)) if features is None else features
    return Graph(2, a, x)


def binary_hidden(adjacency, features):
    """Hidden graph whose effective adjacency is exactly the given 0/1
    matrix (saturated raw weights)."""
    raw = np.where(adjacency > 0, 1500.0, -1500.0)
    return HiddenGraph(ad.parameter(raw), ad.parameter(features.astype(float)))


def quadruple_sum(b, xm, b_hid, x_hid, p):
    """Brute-force 4-index evaluation of the smoothed kernel."""
    bp = np.linalg.matrix_power(b, p)
    bhp = np.linalg.matrix_power(b_hid, p)
    total = 0.0
    for i in range(b.shape[0]):
        for j in range(b.shape[0]):
            for k in range(b_hid.shape[0]):
                for l in range(b_hid.shape[0]):
                    total += (xm[i] @ x_hid[k]) * bp[i, j] * bhp[k, l] * (xm[j] @ x_hid[l])
    return total


# ---------------------------------------------------------------------------
# hidden adjacency
# ---------------------------------------------------------------------------

def test_hidden_adjacency_zero_raw():
    h = HiddenGraph(ad.parameter(np.zeros((3, 3))), ad.parameter(np.zeros((3, 2))))
    b = hidden_adjacency(h).data
    assert np.all(np.diag(b) == 0)
    off = b[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-15)


def test_hidden_adjacency_antisymmetric_entries_cancel():
    raw = np.zeros((3, 3))
    raw[1, 2], raw[2, 1] = 20.0, -20.0
    h = HiddenGraph(ad.parameter(raw), ad.parameter(np.zeros((3, 1))))
    b = hidden_adjacency(h).data
    assert abs(b[1, 2] - 0.5) < 1e-12
    assert abs(b[2, 1] - 0.5) < 1e-12


def test_hidden_adjacency_saturates():
    raw = np.full((3, 3), 20.0)
    h = HiddenGraph(ad.parameter(raw), ad.parameter(np.zeros((3, 1))))
    b = hidden_adjacency(h).data
    off = b[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, atol=1e-8)
    assert np.all(np.diag(b) == 0)


def test_hidden_adjacency_is_symmetric():
    rng = np.random.default_rng(0)
    h = HiddenGraph(ad.parameter(rng.standard_normal((4, 4))),
                    ad.parameter(np.zeros((4, 1))))
    b = hidden_adjacency(h).data
    np.testing.assert_allclose(b, b.T, atol=1e-15)
    assert np.all((b >= 0) & (b <= 1))


# ---------------------------------------------------------------------------
# exact kernel oracle
# ---------------------------------------------------------------------------

def test_exact_kernel_k2_values():
    g = k2()
    assert abs(exact_rw_kernel(g, g, 1) - 4.0) < 1e-12
    assert abs(exact_rw_kernel(g, g, 2) - 4.0) < 1e-12


def test_exact_kernel_zero_features():
    g = k2(np.zeros((2, 1)))
    h = k2()
    assert exact_rw_kernel(g, h, 1) == 0.0


def test_exact_kernel_feature_mismatch():
    g = k2(np.ones((2, 1)))
    h = k2(np.ones((2, 2)))
    with pytest.raises(ContractError):
        exact_rw_kernel(g, h, 1)


def test_exact_kernel_rejects_a_walk_length_below_one():
    with pytest.raises(ContractError, match="walk length must be >= 1, got 0"):
        exact_rw_kernel(k2(), k2(), 0)


@pytest.mark.parametrize("raw, features, message", [
    ((2, 3), (2, 1), "raw_weights must be square"),
    ((1, 1), (1, 1), "needs at least 2 nodes"),
    ((3, 3), (2, 1), "one feature row per node required")],
    ids=["not-square", "one-node", "feature-rows"])
def test_hidden_graph_shape_validation(raw, features, message):
    with pytest.raises(ContractError, match=message):
        HiddenGraph(ad.parameter(np.zeros(raw)), ad.parameter(np.zeros(features)))


# ---------------------------------------------------------------------------
# smoothed kernel
# ---------------------------------------------------------------------------

def test_smoothed_kernel_k2_binary_matches_exact():
    g = k2()
    h = binary_hidden(g.adjacency, g.features)
    val = smoothed_kernel(g.adjacency, g.features, h, 1).item()
    assert abs(val - 4.0) < 1e-12


def test_smoothed_kernel_zero_features():
    g = k2()
    h = binary_hidden(g.adjacency, g.features)
    for p in (1, 2, 3):
        assert smoothed_kernel(g.adjacency, np.zeros((2, 1)), h, p).item() == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_smoothed_kernel_matches_oracle_on_binary_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    n2 = int(rng.integers(2, 7))
    d = int(rng.integers(1, 4))
    g = random_graph(rng, n, d)
    g2 = random_graph(rng, n2, d)
    h = binary_hidden(g2.adjacency, g2.features)
    for p in (1, 2, 3):
        exact = exact_rw_kernel(g, g2, p)
        smooth = smoothed_kernel(g.adjacency, g.features, h, p).item()
        assert abs(smooth - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("seed", range(8))
def test_smoothed_kernel_matches_quadruple_sum_continuous(seed):
    rng = np.random.default_rng(50 + seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    d = 3
    b = rng.random((n, n))
    xm = rng.standard_normal((n, d))
    h = HiddenGraph(ad.parameter(rng.standard_normal((m, m))),
                    ad.parameter(rng.standard_normal((m, d))))
    b_hid = hidden_adjacency(h).data
    for p in (1, 2, 3):
        ref = quadruple_sum(b, xm, b_hid, h.hidden_features.data, p)
        val = smoothed_kernel(b, xm, h, p).item()
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_smoothed_kernel_argument_symmetry():
    rng = np.random.default_rng(9)
    h1 = HiddenGraph(ad.parameter(rng.standard_normal((4, 4))),
                     ad.parameter(rng.standard_normal((4, 3))))
    h2 = HiddenGraph(ad.parameter(rng.standard_normal((5, 5))),
                     ad.parameter(rng.standard_normal((5, 3))))
    b1 = hidden_adjacency(h1).data
    b2 = hidden_adjacency(h2).data
    for p in (1, 2, 3):
        a = smoothed_kernel(b1, h1.hidden_features.data, h2, p).item()
        b = smoothed_kernel(b2, h2.hidden_features.data, h1, p).item()
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_smoothed_kernel_dimension_errors():
    g = k2()
    h = binary_hidden(g.adjacency, g.features)
    with pytest.raises(ContractError):
        smoothed_kernel(g.adjacency, np.ones((2, 3)), h, 1)
    with pytest.raises(ContractError):
        smoothed_kernel(np.ones((3, 3)), g.features, h, 1)
    with pytest.raises(ContractError):
        smoothed_kernel(g.adjacency, g.features, h, 0)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def make_params(rng, cfg, input_dim):
    return SwagParams.init(cfg, input_dim, rng)


def test_encode_output_length():
    rng = np.random.default_rng(1)
    cfg = KernelConfig(num_hidden=8, hidden_nodes=4, hidden_dim=3, max_walk=3)
    params = make_params(rng, cfg, 2)
    g = random_graph(rng, 5)
    assert swag_encode(g, params, cfg).data.shape == (24,)


def test_encode_ordering_hidden_major():
    rng = np.random.default_rng(2)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=3)
    params = make_params(rng, cfg, 2)
    g = random_graph(rng, 4)
    enc = swag_encode(g, params, cfg).data
    b = diffuse(g, cfg.diffusion)
    xm = g.features @ params.weight.data + params.bias.data
    for h_idx in range(cfg.num_hidden):
        h = HiddenGraph(take(params.raw, h_idx), take(params.features, h_idx))
        for p in (1, 2, 3):
            want = smoothed_kernel(b, xm, h, p).item()
            got = enc[h_idx * cfg.max_walk + (p - 1)]
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("seed", range(5))
def test_encode_permutation_invariance(seed):
    rng = np.random.default_rng(80 + seed)
    cfg = KernelConfig(num_hidden=3, hidden_nodes=4, hidden_dim=3, max_walk=3)
    params = make_params(rng, cfg, 2)
    g = random_graph(rng, int(rng.integers(3, 9)))
    base = swag_encode(g, params, cfg).data
    for _ in range(5):
        perm = rng.permutation(g.n)
        enc = swag_encode(g.permuted(perm), params, cfg).data
        np.testing.assert_allclose(enc, base, atol=1e-8, rtol=1e-8)


def test_encode_single_node_zero_features():
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    rng = np.random.default_rng(3)
    params = make_params(rng, cfg, 1)
    params.bias.data[:] = 0.0  # zero bias so mapped features vanish
    g = Graph(1, np.zeros((1, 1)), np.zeros((1, 1)))
    np.testing.assert_array_equal(swag_encode(g, params, cfg).data, np.zeros(4))


def test_encode_batch_matches_single(seed=4):
    # each row is computed from its own graph alone: the batch around it, its
    # position and the other graphs' sizes change no bit of it
    rng = np.random.default_rng(seed)
    for cfg in (KernelConfig(num_hidden=3, hidden_nodes=3, hidden_dim=2, max_walk=2),
                KernelConfig()):
        params = make_params(rng, cfg, 2)
        graphs = ([random_graph(rng, int(rng.integers(2, 7))) for _ in range(6)]
                  + [random_graph(rng, 1), random_graph(rng, 28), random_graph(rng, 5)])
        batch = encode_batch(graphs, params, cfg).data
        assert np.array_equal(batch, encode_numpy(graphs, params, cfg))
        order = rng.permutation(len(graphs))
        shuffled = encode_numpy([graphs[i] for i in order], params, cfg)
        for row, i in enumerate(order):
            assert np.array_equal(shuffled[row], batch[i])
        for i, g in enumerate(graphs):
            assert np.array_equal(swag_encode(g, params, cfg).data, batch[i])
            assert np.array_equal(encode_numpy([g], params, cfg)[0], batch[i])
            assert np.array_equal(encode_batch([g], params, cfg).data[0], batch[i])


def test_encode_numpy_matches_autodiff():
    rng = np.random.default_rng(5)
    cfg = KernelConfig(num_hidden=4, hidden_nodes=3, hidden_dim=3, max_walk=3)
    params = make_params(rng, cfg, 2)
    graphs = [random_graph(rng, int(rng.integers(2, 8))) for _ in range(5)]
    fast = encode_numpy(graphs, params, cfg)
    np.testing.assert_array_equal(fast, encode_batch(graphs, params, cfg).data)
    single = np.stack([swag_encode(g, params, cfg).data for g in graphs])
    np.testing.assert_array_equal(fast, single)


# ---------------------------------------------------------------------------
# the fused encoder against its composition from autodiff primitives
# ---------------------------------------------------------------------------

# Layout primitives the tape composition needs and the library does not:
# each records one tape node, like the primitives in ``swagnn.autodiff``.

def concat(parts) -> ad.Tensor:
    """Concatenate scalars and 1-D tensors into a single 1-D tensor."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat: empty input list")
    flats = []
    for p in parts:
        if p.data.ndim > 1:
            raise ContractError(f"concat: expected scalars or vectors, got shape {p.data.shape}")
        flats.append(np.atleast_1d(p.data))
    out_data = np.concatenate(flats)
    offsets = np.cumsum([0] + [f.size for f in flats])

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                piece = g[lo:hi]
                _accumulate(p, piece[0] if p.data.ndim == 0 else piece)

    return _node(out_data, parts, vjp, "concat")


def stack_rows(parts) -> ad.Tensor:
    """Stack equal-length 1-D tensors into a matrix, one per row."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("stack_rows: empty input list")
    width = parts[0].data.shape
    for p in parts:
        if p.data.ndim != 1 or p.data.shape != width:
            raise ContractError("stack_rows: all inputs must be 1-D of equal length")
    out_data = np.stack([p.data for p in parts])

    def vjp(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accumulate(p, g[i])

    return _node(out_data, parts, vjp, "stack_rows")


def concat_rows(parts) -> ad.Tensor:
    """Vertically concatenate 2-D tensors with matching column counts."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat_rows: empty input list")
    cols = parts[0].data.shape[-1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ContractError("concat_rows: all inputs must be 2-D with equal width")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def vjp(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accumulate(p, g[offsets[i]:offsets[i + 1]])

    return _node(out_data, parts, vjp, "concat_rows")


def block_diag(parts) -> ad.Tensor:
    """Block-diagonal matrix from square 2-D tensors."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("block_diag: empty input list")
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != p.data.shape[1]:
            raise ContractError("block_diag: all inputs must be square matrices")
    sizes = [p.data.shape[0] for p in parts]
    total = sum(sizes)
    out_data = np.zeros((total, total))
    offsets = np.cumsum([0] + sizes)
    for i, p in enumerate(parts):
        out_data[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = p.data

    def vjp(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accumulate(p, g[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]])

    return _node(out_data, parts, vjp, "block_diag")


def take(t, i) -> ad.Tensor:
    """Entry i of a tensor along its first axis: one hidden graph's slice
    of a stacked ``SwagParams`` leaf."""
    t = _as_tensor(t)

    def vjp(g):
        full = np.zeros_like(t.data)
        full[i] = g
        _accumulate(t, full)

    return _node(t.data[i], (t,), vjp, "take")


def tape_encode_batch(graphs, params, cfg):
    """The encoder composed from tape primitives (``ad`` and the layout
    ones above), one tape node per operation: the arithmetic ``encode_batch`` must reproduce bit for bit,
    and a second, independent derivation of its gradient."""
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    hidden = [HiddenGraph(take(params.raw, h), take(params.features, h)) for h in range(M)]
    feats_all = concat_rows([h.hidden_features for h in hidden])
    bhid_all = block_diag([hidden_adjacency(h) for h in hidden])
    right = [feats_all.transpose() @ bhid_all]
    for _ in range(P - 1):
        right.append(right[-1] @ bhid_all)
    group = np.zeros((M * m, M))
    for h in range(M):
        group[h * m:(h + 1) * m, h] = 1.0
    perm = np.zeros((M * P, M * P))
    for p in range(P):
        for h in range(M):
            perm[p * M + h, h * P + p] = 1.0
    group, perm = ad.constant(group), ad.constant(perm)

    rows = []
    for g in graphs:
        b = ad.constant(diffuse(g, cfg.diffusion))
        xm = ad.constant(g.features) @ params.weight + params.bias
        left = b @ (xm @ feats_all.transpose())
        per_walk = []
        for q in range(P):
            per_walk.append(ad.reduce_sum((left * (xm @ right[q])) @ group, axis=0))
            if q + 1 < P:
                left = b @ left
        rows.append(concat(per_walk))
    return stack_rows(rows) @ perm


@pytest.mark.parametrize("seed", range(4))
def test_concat_and_stack(seed):
    rng = np.random.default_rng(600 + seed)
    a = ad.parameter(rng.standard_normal(3))
    b = ad.parameter(rng.standard_normal(2))
    w = rng.standard_normal(5)
    check_grads(lambda: (concat([a, b]) * ad.constant(w)).sum(), [a, b])
    w2 = rng.standard_normal((2, 3))
    c = ad.parameter(rng.standard_normal(3))
    check_grads(lambda: (stack_rows([a, c]) * ad.constant(w2)).sum(), [a, c])


@pytest.mark.parametrize("seed", range(3))
def test_concat_rows_and_block_diag(seed):
    rng = np.random.default_rng(650 + seed)
    a = ad.parameter(rng.standard_normal((2, 3)))
    b = ad.parameter(rng.standard_normal((4, 3)))
    w = rng.standard_normal((6, 3))
    check_grads(lambda: (concat_rows([a, b]) * ad.constant(w)).sum(), [a, b])

    c = ad.parameter(rng.standard_normal((2, 2)))
    d = ad.parameter(rng.standard_normal((3, 3)))
    w2 = rng.standard_normal((5, 5))
    check_grads(lambda: (block_diag([c, d]) * ad.constant(w2)).sum(), [c, d])

    e = ad.parameter(rng.standard_normal((3, 2, 4)))
    w3 = rng.standard_normal((2, 4))
    check_grads(lambda: (take(e, 1) * ad.constant(w3)).sum(), [e])


def test_block_diag_layout():
    a = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = ad.constant(np.array([[5.0]]))
    out = block_diag([a, b]).data
    expected = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    np.testing.assert_array_equal(out, expected)
    with pytest.raises(ContractError):
        block_diag([ad.constant(np.ones((2, 3)))])




def edge_case_batch(rng, d):
    """A 1-node graph, a graph with an isolated node, all-zero features and
    the same Graph object twice."""
    single = Graph(1, np.zeros((1, 1)), rng.standard_normal((1, d)))
    isolated = random_graph(rng, 5, d, edge_p=0.8)
    isolated.adjacency[4, :] = isolated.adjacency[:, 4] = 0.0
    zeros = Graph(4, random_graph(rng, 4, d, edge_p=0.7).adjacency, np.zeros((4, d)))
    shared = random_graph(rng, 6, d)
    return [single, shared, isolated, zeros, shared]


ENCODER_CASES = [
    # (seed, KernelConfig fields, input dim)
    (0, dict(num_hidden=3, hidden_nodes=4, hidden_dim=3, max_walk=3), 2),
    (1, dict(num_hidden=1, hidden_nodes=2, hidden_dim=1, max_walk=1), 1),
    (2, dict(num_hidden=5, hidden_nodes=3, hidden_dim=4, max_walk=4), 3),
    (3, dict(num_hidden=16, hidden_nodes=10, hidden_dim=32, max_walk=3), 7),
]


def encoder_case(seed, fields, d):
    rng = np.random.default_rng(400 + seed)
    cfg = KernelConfig(**fields)
    params = make_params(rng, cfg, d)
    graphs = edge_case_batch(rng, d) + [random_graph(rng, int(rng.integers(2, 12)), d)
                                        for _ in range(6)]
    graphs.append(sbm_graph(rng, int(rng.integers(60, 121)), d))
    return rng, cfg, params, graphs


def leaf_grads(params):
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in params.parameters()]


def assert_grads_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        scale = max(float(np.max(np.abs(w))), 1e-300)
        assert float(np.max(np.abs(g - w))) <= rel * scale


@pytest.mark.parametrize("seed, fields, d", ENCODER_CASES)
def test_encode_batch_is_bitwise_the_tape_composition(seed, fields, d):
    _, cfg, params, graphs = encoder_case(seed, fields, d)
    fused = encode_batch(graphs, params, cfg).data
    np.testing.assert_array_equal(fused, tape_encode_batch(graphs, params, cfg).data)
    np.testing.assert_array_equal(encode_numpy(graphs, params, cfg), fused)
    np.testing.assert_array_equal(fused[1], fused[4])


@pytest.mark.parametrize("seed, fields, d", ENCODER_CASES)
def test_encode_batch_vjp_matches_the_tape(seed, fields, d):
    rng, cfg, params, graphs = encoder_case(seed, fields, d)
    w = ad.constant(rng.standard_normal((len(graphs), cfg.output_dim)))
    grads = []
    for encode in (encode_batch, tape_encode_batch):
        for p in params.parameters():
            p.grad = None
        ad.backward((encode(graphs, params, cfg) * w).sum())
        grads.append(leaf_grads(params))
    assert_grads_close(*grads)


def fresh_walks(g, cfg):
    """X~^T B^p X~ for p = 1..P from a copy of ``g`` (no cache entries), in
    arrays of the graph's own size."""
    g = g.copy()
    xt = np.hstack([g.features, np.ones((g.n, 1))])
    b = diffuse(g, cfg.diffusion)
    walks, walk = [], xt
    for _ in range(cfg.max_walk):
        walk = b @ walk
        walks.append(walk)
    return xt.T @ np.stack(walks)


@pytest.mark.parametrize("seed, fields, d", ENCODER_CASES)
def test_cached_walk_statistics_are_bitwise_the_per_graph_values(seed, fields, d):
    _, base, _, graphs = encoder_case(seed, fields, d)
    graphs = [g.copy() for g in graphs]  # no entries from other tests
    # batches whose largest graph differs: the SBM graph first, last or absent
    batches = [graphs, graphs[::-1], graphs[:-1], graphs[2:7], [graphs[-1], graphs[0]]]
    for diffusion in (DiffusionConfig(), DiffusionConfig(alpha=0.4, depth=1)):
        for walk in (1, 2, 3):
            cfg = dataclasses.replace(base, max_walk=walk, diffusion=diffusion)
            want = {id(g): fresh_walks(g, cfg) for g in graphs}
            for batch in batches + batches:  # the second pass reads the cache
                got = _walk_statistics(batch, cfg)
                for g, stats in zip(batch, got):
                    np.testing.assert_array_equal(stats, want[id(g)])


def test_graph_cache_entries_die_with_their_graph():
    rng = np.random.default_rng(7)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    g = random_graph(rng, 6)
    diffuse(g, cfg.diffusion)
    _walk_statistics([g], cfg)
    LgaAugmenter(0.1).kept_rank(g)
    walks, lga = ("walks", cfg.diffusion, 2), ("lga", 0.1)
    assert set(g._derived) == {cfg.diffusion, walks, lga}
    arrays = [weakref.ref(a) for a in (g._derived[cfg.diffusion], g._derived[walks],
                                       g._derived[lga][0])]
    del g  # no gc.collect(): reference counting alone frees the entries
    assert all(a() is None for a in arrays)


def test_graph_cache_entries_are_read_only():
    rng = np.random.default_rng(11)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    g = random_graph(rng, 6)
    params = SwagParams.init(cfg, g.feature_dim, rng)
    before = encode_numpy([g], params, cfg)
    _walk_statistics([g], cfg)
    walks = g._derived[("walks", cfg.diffusion, 2)]
    theta = LgaAugmenter(0.1)._estimate(g)[0]
    empty = LgaAugmenter(100.0)._estimate(g)[2].adjacency
    for entry in (diffuse(g, cfg.diffusion), walks, theta, empty):
        with pytest.raises(ValueError):
            entry *= 2
        with pytest.raises(ValueError):
            entry[0, 0] = 1.0
    np.testing.assert_array_equal(encode_numpy([g], params, cfg), before)


def test_encode_batch_is_one_tape_node():
    _, cfg, params, graphs = encoder_case(*ENCODER_CASES[0])
    out = encode_batch(graphs, params, cfg)
    assert out._op == "encode_batch"
    assert list(out._parents) == params.parameters()
    assert len(ad.Tape(out.sum()).nodes) == len(params.parameters()) + 2


def test_encode_batch_gradients_skip_frozen_leaves():
    rng, cfg, params, graphs = encoder_case(*ENCODER_CASES[0])
    frozen = params.raw
    frozen.requires_grad = False
    w = ad.constant(rng.standard_normal((len(graphs), cfg.output_dim)))
    ad.backward((encode_batch(graphs, params, cfg) * w).sum())
    assert frozen.grad is None
    assert all(p.grad is not None for p in params.parameters() if p is not frozen)


def test_encode_batch_without_trainable_leaves_records_no_backward():
    _, cfg, params, graphs = encoder_case(*ENCODER_CASES[0])
    for p in params.parameters():
        p.requires_grad = False
    out = encode_batch(graphs, params, cfg)
    assert not out.requires_grad and out._vjp is None


def test_encode_batch_rejects_empty_batch_and_wrong_features():
    _, cfg, params, graphs = encoder_case(*ENCODER_CASES[0])
    with pytest.raises(ContractError):
        encode_batch([], params, cfg)
    with pytest.raises(ContractError):
        encode_numpy([random_graph(np.random.default_rng(0), 3, d=5)], params, cfg)
    # arrays that disagree with n ended in a bare numpy ValueError from matmul
    good = random_graph(np.random.default_rng(1), 3)
    bad = [Graph(3, good.adjacency, np.ones((2, 2))), Graph(3, np.zeros((2, 2)), good.features)]
    for g in bad:
        for encode in (encode_batch, encode_numpy):
            with pytest.raises(ContractError) as exc:
                encode([good, g], params, cfg)
            assert (f"graph 1 of the batch has adjacency shape {g.adjacency.shape} and "
                    f"features shape {g.features.shape}, expected (3, 3) and (3, 2)"
                    ) in str(exc.value)
    # a dataset rejects such a graph where it enters, before any training
    with pytest.raises(ContractError, match="graph 6 has 3 nodes, adjacency shape \\(3, 3\\) and "
                                            "features shape \\(2, 2\\)"):
        Dataset([random_graph(np.random.default_rng(i), 4) for i in range(6)] + bad[:1], 2, 2,
                "mismatched")


def molecule_like(rng, n, d=7):
    """A tree of degree at most 3 plus one ring closure, with one-hot node
    labels: the shape of a MUTAG graph."""
    a = np.zeros((n, n))
    for v in range(1, n):
        free = np.flatnonzero(a[:v].sum(axis=1) < 3)
        u = int(rng.choice(free))
        a[u, v] = a[v, u] = 1.0
    a[0, n - 1] = a[n - 1, 0] = 1.0
    return Graph(n, a, np.eye(d)[rng.integers(0, d, n)])


def test_encode_batch_holds_nothing_node_sized_until_backward():
    rng = np.random.default_rng(11)
    cfg = KernelConfig()
    graphs = [molecule_like(rng, int(n)) for n in rng.integers(10, 29, 64)]
    params = make_params(rng, cfg, 7)
    for g in graphs:
        diffuse(g, cfg.diffusion)  # the diffusion cache belongs to the graphs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = encode_batch(graphs, params, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a single (batch nodes x M*m) buffer would be about 60 times the output
    assert held <= 2 * out.data.nbytes
    ad.backward(out.sum())
    assert all(p.grad is not None for p in params.parameters())


def test_encode_numpy_builds_no_array_square_in_the_hidden_nodes():
    rng = np.random.default_rng(12)
    cfg = KernelConfig(num_hidden=128, hidden_nodes=10, hidden_dim=4)
    params = make_params(rng, cfg, 2)
    g = random_graph(rng, 5)
    tracemalloc.start()
    try:
        encode_numpy([g], params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (M*m) x (M*m) float64 array, such as the hidden graphs as one
    # block-diagonal matrix, would take 13.1 MB; the hidden walks take 123 KB
    assert peak < (cfg.num_hidden * cfg.hidden_nodes) ** 2 * 8


@pytest.mark.parametrize("seed", range(3))
def test_encode_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(90 + seed)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    params = make_params(rng, cfg, 2)
    graphs = [random_graph(rng, 4), random_graph(rng, 3)]
    w = rng.standard_normal((2, cfg.output_dim))

    def loss():
        return (encode_batch(graphs, params, cfg) * ad.constant(w)).sum()

    assert ad.finite_diff_check(loss, params.parameters()) <= 1e-4


def test_encode_cost_grows_at_most_quadratically():
    cfg = KernelConfig(num_hidden=2, hidden_nodes=5, hidden_dim=3, max_walk=3)
    rng = np.random.default_rng(6)
    params = make_params(rng, cfg, 1)

    def path_graph(n):
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i + 1] = a[i + 1, i] = 1.0
        return Graph(n, a, np.ones((n, 1)))

    def timed(g, repeats=5):
        diffuse(g, cfg.diffusion)  # warm the cache; cubic setup is amortized
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            swag_encode(g, params, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    n1, n2 = 40, 160
    t1, t2 = timed(path_graph(n1)), timed(path_graph(n2))
    assert t2 <= 4.0 * (n2 / n1) ** 2 * max(t1, 1e-6)


# ---------------------------------------------------------------------------
# parameter container
# ---------------------------------------------------------------------------

def test_params_copy_is_independent():
    rng = np.random.default_rng(7)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    params = make_params(rng, cfg, 2)
    clone = params.copy()
    clone.raw.data[0, 0, 1] += 5.0
    assert params.raw.data[0, 0, 1] != clone.raw.data[0, 0, 1]


@pytest.mark.parametrize("num_hidden, m, d_h, d", [(1, 2, 1, 1), (3, 4, 5, 2), (16, 10, 32, 7)])
def test_params_init_draws_one_hidden_graph_at_a_time(num_hidden, m, d_h, d):
    cfg = KernelConfig(num_hidden=num_hidden, hidden_nodes=m, hidden_dim=d_h)
    params = SwagParams.init(cfg, d, np.random.default_rng(12))
    # each hidden graph's raw weights then its features, then the feature map
    rng = np.random.default_rng(12)
    raw, features = [], []
    for _ in range(num_hidden):
        raw.append(rng.standard_normal((m, m)))
        features.append(rng.standard_normal((m, d_h)) / np.sqrt(d_h))
    bound = 1.0 / np.sqrt(d)
    weight = rng.uniform(-bound, bound, size=(d, d_h))
    bias = rng.uniform(-bound, bound, size=d_h)
    for leaf, want in zip(params.parameters(), (weight, bias, np.stack(raw), np.stack(features))):
        assert leaf.data.tobytes() == want.tobytes()
        assert leaf.data.shape == want.shape
    assert len(params.parameters()) == 4


def test_params_state_round_trip():
    rng = np.random.default_rng(8)
    cfg = KernelConfig(num_hidden=3, hidden_nodes=4, hidden_dim=2, max_walk=2)
    params = make_params(rng, cfg, 2)
    restored = SwagParams.from_state(params.to_state())
    g = random_graph(rng, 5)
    np.testing.assert_array_equal(swag_encode(g, params, cfg).data,
                                  swag_encode(g, restored, cfg).data)


def test_params_shape_validation():
    weight = ad.parameter(np.ones((2, 2)))
    for bias, raw, features in [
            ((2,), (2, 3, 4), (2, 3, 2)),  # raw weights not square
            ((2,), (0, 3, 3), (0, 3, 2)),  # no hidden graph
            ((2,), (2, 1, 1), (2, 1, 2)),  # one-node hidden graphs
            ((2,), (2, 3, 3), (2, 4, 2)),  # one feature row per node
            ((2,), (2, 3, 3), (2, 3, 3)),  # hidden features wider than the map's output
            ((3,), (2, 3, 3), (2, 3, 2))]:  # bias longer than the map's output
        with pytest.raises(ContractError):
            SwagParams(weight, *[ad.parameter(np.ones(shape)) for shape in (bias, raw, features)])


def test_kernel_config_validation():
    with pytest.raises(ConfigError):
        KernelConfig(num_hidden=0)
    with pytest.raises(ConfigError):
        KernelConfig(hidden_nodes=1)
    with pytest.raises(ConfigError):
        KernelConfig(max_walk=0)
    assert KernelConfig(num_hidden=8, max_walk=3).output_dim == 24

