import math

import numpy as np
import pytest

from swagnn import augment
from swagnn.augment import (
    EdgeDropAugmenter,
    IdentityAugmenter,
    LgaAugmenter,
    edge_drop_baseline,
    generate_sbm,
    make_augmenter,
    rank0_certified,
    sample_augmentation,
    sbm_probability_matrix,
    symmetric_eig,
    usvt_estimate,
    usvt_with_rank,
)
from swagnn.errors import ConfigError, ContractError
from swagnn.graphs import Graph, degree_features
from swagnn.training import TrainConfig


def complete_graph(n):
    a = np.ones((n, n)) - np.eye(n)
    g = Graph(n, a, np.zeros((n, 1)))
    g.features = degree_features(g)
    return g


def cycle(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def reconstruct(dec):
    """The sum of the decomposition's eigenpairs, lambda u u^T."""
    u = dec.eigenvectors
    return (u * dec.eigenvalues) @ u.T


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_swap_matrix():
    dec = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(sorted(dec.eigenvalues), [-1.0, 1.0], atol=1e-12)


def test_eig_identity():
    dec = symmetric_eig(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, np.ones(3), atol=1e-12)
    np.testing.assert_allclose(reconstruct(dec), np.eye(3), atol=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_eig_reconstruction_random(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    a = rng.standard_normal((m, m))
    a = a + a.T
    dec = symmetric_eig(a)
    rec = reconstruct(dec)
    assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)
    gram = dec.eigenvectors.T @ dec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(m), atol=1e-8)


def test_eig_sorted_by_magnitude():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((7, 7))
    a = a + a.T
    vals = symmetric_eig(a).eigenvalues
    mags = np.abs(vals)
    assert np.all(mags[:-1] >= mags[1:] - 1e-12)


def test_eig_matches_library_spectrum():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9))
    a = a + a.T
    ours = np.sort(symmetric_eig(a).eigenvalues)
    ref = np.sort(np.linalg.eigvalsh(a))
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def assert_matches_eigh(a):
    dec = symmetric_eig(a)
    m = a.shape[0]
    np.testing.assert_allclose(np.sort(dec.eigenvalues), np.linalg.eigvalsh(a),
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(reconstruct(dec), a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(m),
                               rtol=0, atol=1e-10)
    mags = np.abs(dec.eigenvalues)
    assert np.all(mags[:-1] >= mags[1:])


@pytest.mark.parametrize("m", [1, 2, 3, 27, 28, 64])
def test_eig_matches_eigh_random(m):
    a = np.random.default_rng(m).standard_normal((m, m))
    assert_matches_eigh(a + a.T)


@pytest.mark.parametrize("n", [5, 12])
def test_eig_matches_eigh_repeated_eigenvalue(n):
    # K_n: n - 1 once and -1 with multiplicity n - 1
    assert_matches_eigh(complete_graph(n).adjacency)


@pytest.mark.parametrize("seed", range(3))
def test_eig_matches_eigh_clustered_eigenvalues(seed):
    # a dense matrix whose tridiagonal form does not split but holds
    # clusters of equal and near-equal eigenvalues
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
    values = np.repeat([3.0, 1.0, -2.0, 0.5], 6) + 1e-13 * rng.standard_normal(24)
    a = (q * values) @ q.T
    a = 0.5 * (a + a.T)
    assert_matches_eigh(a)
    dec = symmetric_eig(a, threshold=1.5)
    assert len(dec.eigenvalues) == 12
    u = dec.eigenvectors
    np.testing.assert_allclose(u.T @ u, np.eye(12), rtol=0, atol=1e-10)
    np.testing.assert_allclose(reconstruct(dec), (q[:, values**2 > 2] * values[values**2 > 2])
                               @ q[:, values**2 > 2].T, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n, k", [(19, 2), (25, 8), (37, 2), (34, 11)])
def test_eig_matches_eigh_complete_bipartite(n, k):
    # eigenvalue 0 n - 2 times: after two steps the reduction meets
    # columns of rounding-level entries that shrink towards underflow
    a = np.zeros((n, n))
    a[:k, k:] = a[k:, :k] = 1.0
    assert_matches_eigh(a)


def test_eig_matches_eigh_disconnected_and_zero():
    a = np.zeros((9, 9))
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]:  # triangle, path, 2 isolated
        a[u, v] = a[v, u] = 1.0
    assert_matches_eigh(a)
    assert_matches_eigh(np.zeros((6, 6)))


def block_diagonal(*blocks):
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


@pytest.mark.parametrize("a", [
    np.zeros((1, 1)), np.array([[3.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[2.0, 0.0], [0.0, -1.0]]),
    block_diagonal(complete_graph(3).adjacency, cycle(4), np.zeros((2, 2))), np.zeros((5, 5)),
], ids=["1-zero", "1", "2", "2-diagonal", "block-diagonal", "zero"])
def test_eig_small_and_block_diagonal_inputs(a):
    assert_matches_eigh(a)
    for threshold in (0.5, 1.5, 2.5):
        dec = symmetric_eig(a, threshold=threshold)
        want = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(np.sort(dec.eigenvalues), want[np.abs(want) >= threshold],
                                   rtol=0, atol=1e-12)
        assert dec.eigenvectors.shape == (len(a), len(dec.eigenvalues))


@pytest.mark.parametrize("seed", range(4))
def test_eig_thresholded_pairs_match_full_decomposition(seed):
    g = generate_sbm([15, 20, 25], 0.7, 0.1, seed=seed)
    full = symmetric_eig(g.adjacency)
    threshold = 0.5 * math.sqrt(g.n)
    part = symmetric_eig(g.adjacency, threshold=threshold)
    kept = np.abs(full.eigenvalues) >= threshold
    assert 0 < len(part.eigenvalues) == kept.sum() < g.n
    np.testing.assert_allclose(part.eigenvalues, full.eigenvalues[kept], rtol=0, atol=1e-12)
    # equal up to sign: these eigenvalues are simple
    signs = np.sign(np.sum(part.eigenvectors * full.eigenvectors[:, kept], axis=0))
    np.testing.assert_allclose(part.eigenvectors * signs, full.eigenvectors[:, kept],
                               rtol=0, atol=1e-10)


def test_eig_is_bitwise_reproducible():
    a = generate_sbm([30, 30, 30], 0.8, 0.1, seed=7).adjacency
    first, again = symmetric_eig(a, threshold=3.0), symmetric_eig(a, threshold=3.0)
    np.testing.assert_array_equal(first.eigenvalues, again.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, again.eigenvectors)
    np.testing.assert_array_equal(usvt_estimate(a, 0.5), usvt_estimate(a, 0.5))


def test_eig_rejects_asymmetric():
    with pytest.raises(ContractError):
        symmetric_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ContractError):
        symmetric_eig(np.ones((2, 3)))
    with pytest.raises(ContractError):
        symmetric_eig(np.array([[0.0, np.nan], [np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# thresholded estimate
# ---------------------------------------------------------------------------

def test_usvt_complete_graph_dominant_component():
    # K4 spectrum is {3, -1, -1, -1}; tau=1 keeps only the top component,
    # whose rank-1 reconstruction is 0.75 everywhere.
    theta = usvt_estimate(complete_graph(4).adjacency, tau=1.0)
    np.testing.assert_allclose(theta, np.full((4, 4), 0.75), atol=1e-8)


def test_usvt_zero_matrix():
    np.testing.assert_array_equal(usvt_estimate(np.zeros((5, 5)), 0.5), np.zeros((5, 5)))


@pytest.mark.parametrize("seed", range(5))
def test_usvt_output_range_and_symmetry(seed):
    g = generate_sbm([10, 10], 0.7, 0.3, seed=seed)
    theta = usvt_estimate(g.adjacency, tau=1.0)
    assert np.all((theta >= 0) & (theta <= 1))
    np.testing.assert_allclose(theta, theta.T, atol=0)


def test_usvt_permutation_equivariance():
    rng = np.random.default_rng(3)
    g = generate_sbm([6, 6], 0.9, 0.1, seed=1)
    theta = usvt_estimate(g.adjacency, tau=0.8)
    for _ in range(5):
        perm = rng.permutation(g.n)
        permuted = usvt_estimate(g.adjacency[np.ix_(perm, perm)], tau=0.8)
        np.testing.assert_allclose(permuted, theta[np.ix_(perm, perm)], atol=1e-8)


def test_usvt_monotone_in_tau():
    g = generate_sbm([8, 8], 0.8, 0.2, seed=2)
    ranks = [usvt_with_rank(g.adjacency, tau)[1] for tau in (0.3, 1.0, 2.02, 4.2)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    assert ranks[0] >= 1


def test_usvt_ties_are_kept():
    # diagonal input gives exact eigenvalues; threshold 0.5*sqrt(4) == 1.0
    # lands exactly on the second one, which must survive
    a = np.diag([2.0, 1.0, 0.5, 0.25])
    _, rank = usvt_with_rank(a, tau=0.5)
    assert rank == 2


def test_usvt_degenerate_eigenvalue_on_threshold_is_kept_whole():
    # K_4 at tau 0.5: threshold 1.0 and eigenvalue -1 three times; all of
    # that eigenspace is kept, so theta is K_4 itself
    theta, rank = usvt_with_rank(complete_graph(4).adjacency, tau=0.5)
    assert rank == 4
    np.testing.assert_allclose(theta, complete_graph(4).adjacency, rtol=0, atol=1e-12)


def ring_with_isolated_nodes(ring, n):
    a = np.zeros((n, n))
    a[:ring, :ring] = cycle(ring)
    return a


@pytest.mark.parametrize("a, tau, rank", [
    (complete_graph(4).adjacency, 0.5, 4),
    (cycle(6), 1 / math.sqrt(6), 6),                      # 2, 1, 1, -1, -1, -2 on 1.0
    (ring_with_isolated_nodes(6, 16), 0.5, 2),             # +-2 on 0.5 * sqrt(16)
    (cycle(16), 0.5, 2),                                    # the row sum sits on it
    (np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]), 0.5, 4),
], ids=["K4", "C6", "ring+isolated", "C16", "2K2"])
def test_usvt_tie_rank_is_permutation_invariant(a, tau, rank):
    assert not rank0_certified(a, tau)
    rng = np.random.default_rng(0)
    for _ in range(20):
        perm = rng.permutation(len(a))
        assert usvt_with_rank(a[np.ix_(perm, perm)], tau)[1] == rank


def test_usvt_three_equal_blocks_match_eigh():
    for seed in range(3):
        a = generate_sbm([40, 40, 40], 0.8, 0.1, seed=[9, seed]).adjacency
        theta, rank = usvt_with_rank(a, 1.0)
        want_theta, want_rank = usvt_eigh(a, 1.0)
        assert rank == want_rank == 3
        np.testing.assert_allclose(theta, want_theta, rtol=0, atol=1e-12)


def usvt_eigh(a, tau):
    w, v = np.linalg.eigh(a)
    keep = np.abs(w) >= tau * math.sqrt(a.shape[0])
    theta = np.clip((v[:, keep] * w[keep]) @ v[:, keep].T, 0.0, 1.0)
    return 0.5 * (theta + theta.T), int(keep.sum())


def count_eig_calls(monkeypatch):
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return symmetric_eig(a, *args, **kwargs)

    monkeypatch.setattr(augment, "symmetric_eig", counted)
    return calls


@pytest.mark.parametrize("a", [cycle(10), generate_sbm([12, 12], 0.7, 0.1, seed=4).adjacency],
                         ids=["cycle", "sbm"])
@pytest.mark.parametrize("side", [-1, 1])
def test_usvt_rank0_bound_matches_eigh(monkeypatch, a, side):
    # tau puts tau*sqrt(n) just below (side -1) or just above (side 1) the
    # largest row sum; the cycle's top eigenvalue equals that row sum
    calls = count_eig_calls(monkeypatch)
    tau = a.sum(axis=1).max() * (1 + side * 1e-9) / math.sqrt(a.shape[0])
    theta, rank = usvt_with_rank(a, tau)
    want_theta, want_rank = usvt_eigh(a, tau)
    assert rank == want_rank
    np.testing.assert_allclose(theta, want_theta, rtol=0, atol=1e-10)
    assert len(calls) == (0 if side == 1 else 1)


def test_usvt_certified_rank0_skips_decomposition(monkeypatch):
    # a molecule-sized ring at the default tau: degree 2 < 2.02*sqrt(18)
    calls = count_eig_calls(monkeypatch)
    theta, rank = usvt_with_rank(cycle(18), TrainConfig().tau)
    assert rank == 0 and not calls
    np.testing.assert_array_equal(theta, np.zeros((18, 18)))
    with pytest.raises(ContractError):
        usvt_with_rank(np.array([[0.0, 0.1], [0.0, 0.0]]), 2.02)


@pytest.mark.parametrize("tau", [math.nan, -1.0, 0.0])
def test_usvt_rejects_a_tau_that_is_nan_or_not_positive(tau):
    # a NaN threshold compares false everywhere and would keep every component
    with pytest.raises(ConfigError):
        usvt_with_rank(generate_sbm([10, 10], 0.8, 0.2, seed=0).adjacency, tau)


def test_usvt_fixed_point_complete_graph():
    g = complete_graph(4)
    theta = usvt_estimate(g.adjacency, tau=0.3)  # keeps all components
    for seed in range(20):
        np.testing.assert_array_equal(sample_augmentation(theta, seed), g.adjacency)


def test_usvt_sbm_recovery_single_seed():
    sizes = [100, 100]
    g = generate_sbm(sizes, 0.8, 0.2, seed=0)
    theta = usvt_estimate(g.adjacency, tau=2.02)
    mae = np.mean(np.abs(theta - sbm_probability_matrix(sizes, 0.8, 0.2)))
    assert mae <= 0.1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_degenerate_probabilities():
    ones = 1.0 - np.eye(5)
    for seed in range(5):
        sampled = sample_augmentation(ones, seed)
        np.testing.assert_array_equal(sampled, 1.0 - np.eye(5))
    np.testing.assert_array_equal(sample_augmentation(np.zeros((5, 5)), 0),
                                  np.zeros((5, 5)))


def test_sample_rejects_bad_probabilities():
    with pytest.raises(ContractError):
        sample_augmentation(np.full((3, 3), 1.5), 0)
    with pytest.raises(ContractError):
        sample_augmentation(np.full((3, 3), -0.1), 0)


def test_sample_deterministic_and_simple():
    theta = np.full((6, 6), 0.5)
    a = sample_augmentation(theta, 7)
    b = sample_augmentation(theta, 7)
    c = sample_augmentation(theta, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_sample_edge_count_concentration():
    n = 100
    theta = np.full((n, n), 0.5)
    pairs = n * (n - 1) // 2
    mean = 0.5 * pairs
    std = np.sqrt(pairs * 0.25)
    inside = 0
    for seed in range(100):
        edges = sample_augmentation(theta, seed).sum() / 2
        inside += abs(edges - mean) <= 3 * std
    assert inside >= 97


# ---------------------------------------------------------------------------
# generators and baseline perturbation
# ---------------------------------------------------------------------------

def test_sbm_deterministic_blocks():
    g = generate_sbm([3, 3], 1.0, 0.0, seed=5)
    expected = np.zeros((6, 6))
    expected[:3, :3] = 1.0 - np.eye(3)
    expected[3:, 3:] = 1.0 - np.eye(3)
    np.testing.assert_array_equal(g.adjacency, expected)
    np.testing.assert_array_equal(g.features, degree_features(g))


def test_sbm_density_near_target():
    g = generate_sbm([50, 50], 0.8, 0.2, seed=0)
    block = g.adjacency[:50, :50]
    intra_density = block.sum() / (50 * 49)
    assert abs(intra_density - 0.8) <= 0.05
    cross_density = g.adjacency[:50, 50:].mean()
    assert abs(cross_density - 0.2) <= 0.05


def test_sbm_validates_probabilities():
    with pytest.raises(ConfigError):
        generate_sbm([3, 3], 1.2, 0.1, seed=0)


def test_edge_drop_extremes():
    g = complete_graph(6)
    same = edge_drop_baseline(g, 0.0, seed=0)
    np.testing.assert_array_equal(same.adjacency, g.adjacency)
    empty = edge_drop_baseline(g, 1.0, seed=0)
    assert empty.adjacency.sum() == 0
    assert empty.features is g.features


def test_edge_drop_expected_count():
    g = complete_graph(10)
    survived = [edge_drop_baseline(g, 0.2, seed=s).num_edges() for s in range(1000)]
    mean = np.mean(survived)
    # mean of 1000 independent binomial(45, 0.8) draws
    std_of_mean = np.sqrt(45 * 0.8 * 0.2) / np.sqrt(1000)
    assert abs(mean - 36.0) <= 3 * std_of_mean


def test_edge_drop_only_removes():
    g = generate_sbm([8, 8], 0.6, 0.3, seed=1)
    dropped = edge_drop_baseline(g, 0.5, seed=2)
    assert np.all(dropped.adjacency <= g.adjacency)


# ---------------------------------------------------------------------------
# augmenter objects
# ---------------------------------------------------------------------------

def test_lga_augmenter_caches_estimate_and_streams():
    g = generate_sbm([20, 20], 0.8, 0.2, seed=0)
    aug = LgaAugmenter(tau=1.0, seed=3)
    first = aug.augment(g, index=0, epoch=0)
    again = aug.augment(g, index=0, epoch=0)
    other_epoch = aug.augment(g, index=0, epoch=1)
    np.testing.assert_array_equal(first.adjacency, again.adjacency)
    assert not np.array_equal(first.adjacency, other_epoch.adjacency)
    assert first.features is g.features
    assert first.label == g.label
    assert aug.kept_rank(g) >= 1


def test_lga_augmenter_index_separates_streams():
    g = generate_sbm([20, 20], 0.8, 0.2, seed=0)
    aug = LgaAugmenter(tau=1.0, seed=3)
    a = aug.augment(g, index=0, epoch=0)
    b = aug.augment(g, index=1, epoch=0)
    assert not np.array_equal(a.adjacency, b.adjacency)


def test_edge_drop_augmenter_deterministic():
    g = complete_graph(8)
    aug = EdgeDropAugmenter(0.3, seed=1)
    a = aug.augment(g, 2, 5)
    b = aug.augment(g, 2, 5)
    np.testing.assert_array_equal(a.adjacency, b.adjacency)
    assert not np.array_equal(a.adjacency, aug.augment(g, 2, 6).adjacency)


def test_identity_augmenter():
    g = complete_graph(4)
    assert IdentityAugmenter().augment(g, 0, 0) is g


def test_make_augmenter():
    knobs = dict(tau=1.0, drop_rate=0.1, seed=0)
    assert isinstance(make_augmenter("lga", **knobs), LgaAugmenter)
    assert isinstance(make_augmenter("edge-drop", **knobs), EdgeDropAugmenter)
    assert isinstance(make_augmenter("identity", **knobs), IdentityAugmenter)
    with pytest.raises(ConfigError):
        make_augmenter("shuffle", **knobs)


def test_augmenter_config_validation():
    with pytest.raises(ConfigError):
        LgaAugmenter(tau=-1.0)
    with pytest.raises(ConfigError):
        LgaAugmenter(tau=math.nan)
    with pytest.raises(ConfigError):
        EdgeDropAugmenter(1.5)
