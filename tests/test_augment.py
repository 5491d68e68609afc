import math
import os
import re
import weakref

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
from swagnn.errors import ConfigError, ContractError, NumericalError
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
    np.zeros((0, 0)), np.zeros((1, 1)), np.array([[3.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[2.0, 0.0], [0.0, -1.0]]),
    block_diagonal(complete_graph(3).adjacency, cycle(4), np.zeros((2, 2))), np.zeros((5, 5)),
], ids=["empty", "1-zero", "1", "2", "2-diagonal", "block-diagonal", "zero"])
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


def tridiagonal(diag, off):
    return np.diag(np.asarray(diag, dtype=float)) + np.diag(off, 1) + np.diag(off, -1)


def guard_tripping_input():
    """A tridiagonal matrix and a tau whose cut ``usvt_threshold`` equals
    its first diagonal entry: the first Sturm pivot at that shift is an
    exact zero, which LAPACK's pivmin guard replaces."""
    a = tridiagonal([0.0, 3.0, -2.0, 4.0, 1.0, -1.0, 2.0, 0.5],
                    [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    tau = 0.5
    a[0, 0] = augment.usvt_threshold(a, tau * math.sqrt(len(a)))  # row 0 is not the largest sum
    return a, tau


def tridiagonal_cases():
    """Inputs that are already tridiagonal, with thresholds: Householder
    skips every column and the back transformation subtracts exact zeros,
    so no BLAS rounding enters the result."""
    wilkinson = tridiagonal(np.abs(np.arange(21) - 10.0), np.ones(20))  # close pairs
    blocks = tridiagonal([2.0, -1.0, 0.5, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0, -4.0],
                         [0.0, 1.5, 0.0, 1.0, 1.0, 1.0, 1.0, 1e-20, 0.0])  # 1x1 blocks
    guard, tau = guard_tripping_input()
    return {"wilkinson": (wilkinson, [None, 5.0, 9.0]),
            "blocks": (blocks, [None, 0.9, 2.5]),
            "guard": (guard, [None, tau * math.sqrt(len(guard))])}


# recorded at commit 3d485d9, before the tridiagonal LU and solve ran one
# eigenvalue at a time on Python floats
TRIDIAGONAL_EIG = os.path.join(os.path.dirname(__file__), "fixtures", "tridiagonal_eig.npz")


@pytest.mark.parametrize("name", ["wilkinson", "blocks", "guard"])
def test_tridiagonal_stage_is_pinned_bit_for_bit(name):
    # the Sturm guard, LU row swaps, clusters reorthogonalised in waves and
    # splits into blocks (1x1 ones too) all round exactly as recorded
    a, thresholds = tridiagonal_cases()[name]
    with np.load(TRIDIAGONAL_EIG) as want:
        for i, threshold in enumerate(thresholds):
            dec = symmetric_eig(a, threshold=threshold)
            for part, got in (("values", dec.eigenvalues), ("vectors", dec.eigenvectors)):
                stored = want[f"{name}/{i}/{part}"]
                assert got.shape == stored.shape
                assert got.tobytes() == stored.tobytes(), (name, threshold, part)


def test_usvt_under_raising_floating_point_state_keeps_its_bits():
    # pretraining runs LGA with overflow and invalid operations raising
    a, tau = guard_tripping_input()
    theta, rank = usvt_with_rank(a, tau)
    with np.errstate(all="raise"):
        raised, raised_rank = usvt_with_rank(a, tau)
    assert rank == raised_rank > 0
    assert theta.tobytes() == raised.tobytes()


# (adjacency, threshold): C5's top eigenvalue 2 sits on its threshold
SCALED_CASES = {"C5": (cycle(5), 2.0),
                "sbm": (generate_sbm([20, 20], 0.7, 0.1, seed=3).adjacency, 0.5 * math.sqrt(40))}


@pytest.mark.parametrize("scale", [1e200, 2.0 ** 600, 1e160, 1e155, 1e-200, 2.0 ** -600])
@pytest.mark.parametrize("name", sorted(SCALED_CASES))
def test_eig_far_from_unit_scale_matches_the_unit_spectrum(name, scale):
    # a largest entry outside dsyev's safe range is scaled by a power of two
    # first: no overflow, underflow or failed convergence on the way
    a, threshold = SCALED_CASES[name]
    full, kept = symmetric_eig(a).eigenvalues, symmetric_eig(a, threshold).eigenvalues
    with np.errstate(all="raise"):
        scaled = a * scale
        scaled_full = symmetric_eig(scaled).eigenvalues
        scaled_kept = symmetric_eig(scaled, threshold * scale).eigenvalues
    assert np.abs(scaled_full / scale - full).max() <= 1e-13 * np.abs(full).max()
    assert len(scaled_kept) == len(kept) > 0
    np.testing.assert_allclose(scaled_kept / scale, kept, rtol=1e-13, atol=0)


def test_usvt_far_from_unit_scale_returns():
    with np.errstate(all="raise"):
        theta, rank = usvt_with_rank(cycle(5) * 1e200, 0.5)
    assert rank == 5
    assert np.all((theta >= 0) & (theta <= 1))


def test_scale_beyond_the_float_range_is_a_numerical_error():
    # C5's eigenvalues reach 2e308 and its row sums too: neither fits a float
    a = cycle(5) * 1e308
    calls = {"symmetric_eig": lambda: symmetric_eig(a),
             "symmetric_eig with a threshold": lambda: symmetric_eig(a, 1e308),
             "usvt_with_rank": lambda: usvt_with_rank(a, 2.02),
             "rank0_certified": lambda: rank0_certified(a, 2.02)}
    for call in calls.values():
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="float range"):
            call()
    # eigenvalues of 1.41e308 still fit, though the row sums do not
    big = np.array([[1e308, 1e308], [1e308, -1e308]])
    with np.errstate(all="raise"):
        values = symmetric_eig(big).eigenvalues
    np.testing.assert_allclose(values, [-math.sqrt(2) * 1e308, math.sqrt(2) * 1e308],
                               rtol=1e-15)
    with pytest.raises(ContractError, match="not symmetric"):
        symmetric_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_usvt_needs_no_library_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("eigh", "eigvalsh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    a = generate_sbm([30, 30, 30], 0.8, 0.1, seed=7).adjacency
    theta, rank = usvt_with_rank(a, 1.0)
    assert rank == 3
    assert np.all((theta >= 0) & (theta <= 1))


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


def test_usvt_of_an_empty_matrix_is_empty_with_rank_0():
    theta, rank = usvt_with_rank(np.zeros((0, 0)), 0.5)
    assert theta.shape == (0, 0) and rank == 0


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
    theta = np.full((4, 4), 0.5)
    theta[1, 2] = np.nan
    for bad in (theta, np.full((4, 4), np.nan)):
        with pytest.raises(ContractError, match=r"outside \[0, 1\] or NaN"):
            sample_augmentation(bad, 0)
    for bad in (np.full((3, 4), 0.5), np.full(4, 0.5), np.full((2, 2, 2), 0.5)):
        with pytest.raises(ContractError, match=re.escape(f"shape {bad.shape} is not a square")):
            sample_augmentation(bad, 0)
    assert sample_augmentation(np.zeros((0, 0)), 0).shape == (0, 0)


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


def upper_edges(a):
    return [tuple(map(int, e)) for e in np.argwhere(np.triu(a))]


def test_sample_draws_are_pinned():
    # exact draws, so a change in the order the RNG stream is spent shows
    theta = np.full((6, 6), 0.5)
    theta[0, :] = theta[:, 0] = 0.9
    assert upper_edges(sample_augmentation(theta, 0)) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 5), (3, 5)]
    assert upper_edges(sample_augmentation(theta, [3, 4, 0])) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (2, 5), (3, 4), (3, 5)]


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


@pytest.mark.parametrize("rate", [2.0, -0.1, math.nan])
def test_edge_drop_rejects_a_rate_outside_0_1(rate):
    with pytest.raises(ConfigError, match=r"edge_drop_baseline: rate .* outside \[0,1\]"):
        edge_drop_baseline(complete_graph(3), rate, seed=0)


def test_edge_drop_expected_count():
    g = complete_graph(10)
    survived = [edge_drop_baseline(g, 0.2, seed=s).num_edges() for s in range(1000)]
    mean = np.mean(survived)
    # mean of 1000 independent binomial(45, 0.8) draws
    std_of_mean = np.sqrt(45 * 0.8 * 0.2) / np.sqrt(1000)
    assert abs(mean - 36.0) <= 3 * std_of_mean


def test_edge_drop_draws_are_pinned():
    a = np.zeros((6, 6))
    for u, v in [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)]:
        a[u, v] = a[v, u] = 1.0
    g = Graph(6, a, np.ones((6, 1)))
    assert upper_edges(edge_drop_baseline(g, 0.5, 0).adjacency) == [
        (0, 1), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    assert upper_edges(edge_drop_baseline(g, 0.5, [1, 2, 0]).adjacency) == [
        (0, 5), (2, 4), (3, 4)]


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


def test_lga_rank0_positive_is_built_once_and_shared():
    g = Graph(7, cycle(7), np.arange(14.0).reshape(7, 2), label=1)
    aug = LgaAugmenter(tau=2.02, seed=3)
    positive = aug.augment(g, index=4, epoch=0)
    assert aug.kept_rank(g) == 0 and rank0_certified(g.adjacency, 2.02)
    assert positive is not g
    assert positive.n == g.n and positive.num_edges() == 0
    # the draw the stream would have made from theta = 0, bit for bit
    theta = usvt_estimate(g.adjacency, 2.02)
    for index, epoch in ((4, 0), (0, 5), (9, 2)):
        assert aug.augment(g, index, epoch) is positive
        assert sample_augmentation(theta, [3, index, epoch]).tobytes() == \
            positive.adjacency.tobytes()
    assert positive.features is g.features and positive.label == g.label
    with pytest.raises(ValueError):
        positive.adjacency[0, 1] = 1.0
    # a positive drawn from a nonzero estimate is a fresh graph per call
    sbm = generate_sbm([20, 20], 0.8, 0.2, seed=0)
    assert aug.augment(sbm, 0, 0) is not aug.augment(sbm, 0, 0)


def test_lga_rank0_positive_dies_with_its_anchor():
    aug = LgaAugmenter(tau=2.02)
    g = Graph(5, cycle(5), np.ones((5, 1)))
    anchor, positive = weakref.ref(g), weakref.ref(aug.augment(g, 0, 0))
    assert g._derived[("lga", 2.02)][2] is positive()
    del g  # no gc.collect(): reference counting alone frees the entry
    assert anchor() is None and positive() is None
    assert vars(aug) == {"tau": 2.02, "seed": 0}  # the augmenter keeps nothing per graph


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
