"""Latent graph augmentation.

An anchor graph's adjacency is treated as a noisy realization of an
edge-probability matrix.  Spectral thresholding recovers an estimate of
that matrix, and positives for self-supervision are drawn from it as
fresh Bernoulli samples.  Node features always carry over verbatim.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError
from .graphs import Graph

_SYMMETRY_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_SAFE_MIN = float(np.finfo(np.float64).tiny)
# Ties: an eigenvalue within _TIE_MULTIPLE * n * eps * |A|_inf of the USVT
# threshold counts as reaching it (see ``usvt_threshold``).
_TIE_MULTIPLE = 8
_SHIFTS = 32        # multisection shifts per eigenvalue per pass
_MAX_PASSES = 80    # a pass shrinks each bracket 33-fold; 11 reach eps
_MAX_INVERSE_ITERATIONS = 5


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, sorted by descending |eigenvalue|."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a: np.ndarray, where: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ContractError(f"{where}: input must be square")
    if not np.isfinite(a).all():
        raise ContractError(f"{where}: input is not finite")
    if m and np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
        raise ContractError(f"{where}: input is not symmetric")
    return a


def _inf_norm(a: np.ndarray) -> float:
    """Largest absolute row sum, a bound on every |eigenvalue|."""
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


def usvt_threshold(a: np.ndarray, threshold: float) -> float:
    """The effective threshold: ``threshold`` less the tie slack
    8 n eps |A|_inf, so that an eigenvalue sitting on the threshold is kept
    whatever its last bits."""
    return threshold - _TIE_MULTIPLE * a.shape[0] * _EPS * _inf_norm(a)


def rank0_certified(a: np.ndarray, tau: float) -> bool:
    """True when no spectral component can reach tau*sqrt(n): every
    |eigenvalue| is at most the largest absolute row sum, and that sum is
    below the effective threshold.  Needs no decomposition."""
    a = np.asarray(a, dtype=np.float64)
    return _inf_norm(a) < usvt_threshold(a, tau * math.sqrt(a.shape[0]))


def _tridiagonalize(a: np.ndarray):
    """Householder reduction T = Q^T a Q, Q = H_0 ... H_{m-3}.

    Step k reflects column k below the subdiagonal onto its first entry
    and updates the trailing block by one rank-2 correction.  Returns T's
    diagonal and off-diagonal and the unit reflector vectors as rows
    (H_k = I - 2 v v^T with v in row k, supported on entries k+1..).  A
    column whose entries below the subdiagonal are all below eps |a| in
    norm is left as it is (a zero row of reflectors): reflecting it would
    square numbers near underflow, and dropping them perturbs a no more
    than rounding does.
    """
    work = a.copy()
    m = len(work)
    negligible = (_EPS * _inf_norm(a)) ** 2
    off = np.zeros(max(m - 1, 0))
    refl = np.zeros((max(m - 2, 0), m))
    for k in range(m - 2):
        x = work[k + 1:, k]
        tail = float(x[1:] @ x[1:])
        if tail <= negligible:
            off[k] = x[0]
            continue
        head = float(x[0])
        norm = math.sqrt(head * head + tail)
        v = refl[k, k + 1:]
        v[:] = x
        v[0] += math.copysign(norm, head)
        v /= math.sqrt(2.0 * norm * (norm + abs(head)))
        block = work[k + 1:, k + 1:]
        p = 2.0 * (block @ v)
        r = np.outer(v, p - (v @ p) * v)
        block -= r + r.T
        off[k] = -math.copysign(norm, head)
    if m > 1:
        off[m - 2] = work[m - 1, m - 2]
    return np.diag(work).copy(), off, refl


def _sturm_counts(diag, off2, pivmin, shifts, starts, ends):
    """Eigenvalue counts of T's blocks below the shifts: row j of
    ``shifts`` is counted in the block [starts[j], ends[j]).  The count is
    the number of non-positive LDL^T pivots of T - sigma I in the block's
    rows; a pivot smaller than pivmin in magnitude becomes -pivmin
    (LAPACK's guard), which keeps every division finite."""
    piv = diag[:, None] - shifts.ravel()[None, :]
    for i in range(len(diag)):
        row = piv[i]
        if i:
            row -= off2[i - 1] / piv[i - 1]
        row[np.abs(row) < pivmin] = -pivmin
    below = np.zeros((len(diag) + 1, piv.shape[1]), dtype=np.int64)
    np.cumsum(piv <= 0, axis=0, out=below[1:])
    cols = np.arange(piv.shape[1]).reshape(shifts.shape)
    return below[ends[:, None], cols] - below[starts[:, None], cols]


def _multisection(diag, off2, pivmin, starts, ends, index, lo, hi, atol):
    """Eigenvalue ``index[j]`` (ascending, within block j) inside (lo[j],
    hi[j]]: each pass counts at _SHIFTS evenly spaced shifts per bracket
    and keeps the sub-bracket holding the eigenvalue."""
    frac = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    rows = np.arange(len(index))[:, None]
    for _ in range(_MAX_PASSES):
        width = hi - lo
        if np.all(width <= np.maximum(atol, 2 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))):
            break
        grid = np.empty((len(index), _SHIFTS + 2))
        grid[:, 0], grid[:, -1] = lo, hi
        grid[:, 1:-1] = lo[:, None] + width[:, None] * frac
        counts = _sturm_counts(diag, off2, pivmin, grid[:, 1:-1], starts, ends)
        at = (counts <= index[:, None]).sum(axis=1)[:, None]
        lo, hi = grid[rows, at].ravel(), grid[rows, at + 1].ravel()
    return 0.5 * (lo + hi)


def _inverse_iteration(diag, off, lam, starts, ends, tnorm):
    """Eigenvectors of T for the eigenvalues ``lam``, each supported on its
    block's rows, by inverse iteration with partial-pivoting LU of
    T - lam I (LAPACK's dstein), from one fixed start vector.  A step
    solves with a right-hand side scaled to size * eps * |T|; a column has
    converged once its solution reaches sqrt(0.1 / size), and one more step
    follows.  Ascending eigenvalues of one block closer than 1e-3 |T| form
    a cluster, whose vectors are kept orthogonal by Gram-Schmidt against
    the cluster's earlier members at every step."""
    m, k = len(diag), len(lam)
    size = ends - starts
    first = np.zeros(k, dtype=np.int64)  # each eigenvalue's cluster head
    for j in range(1, k):
        same = starts[j] == starts[j - 1] and lam[j] - lam[j - 1] <= 1e-3 * tnorm
        first[j] = first[j - 1] if same else j
    low, u0, u1, u2, swap = _tridiagonal_lu(diag, off, lam, _EPS * tnorm)
    start_vec = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    rows = np.arange(m)[:, None]
    vecs = np.zeros((m, k))
    position = np.arange(k) - first
    for wave in range(position.max() + 1):
        cols = np.flatnonzero(position == wave)
        inside = (rows >= starts[cols]) & (rows < ends[cols])
        x = np.where(inside, start_vec[:, None], 0.0)
        target = size[cols] * _EPS * tnorm
        passed = np.zeros(len(cols), dtype=bool)
        for _ in range(_MAX_INVERSE_ITERATIONS):
            x *= target / np.abs(x).sum(axis=0)
            x = _tridiagonal_solve(low[:, cols], u0[:, cols], u1[:, cols], u2[:, cols],
                                   swap[:, cols], x)
            for p in range(wave):
                prev = vecs[:, first[cols] + p]
                x -= prev * (prev * x).sum(axis=0)
            if passed.all():
                break  # one more step after every column passed
            passed |= np.abs(x).max(axis=0) >= np.sqrt(0.1 / size[cols])
        if not passed.all():
            raise NumericalError(f"symmetric_eig: inverse iteration did not converge in "
                                 f"{_MAX_INVERSE_ITERATIONS} steps")
        x /= np.sqrt((x * x).sum(axis=0))
        peak = np.abs(x).argmax(axis=0)
        x *= np.sign(x[peak, np.arange(len(cols))])
        vecs[:, cols] = x
    return vecs


def _tridiagonal_lu(diag, off, lam, ptol):
    """Gaussian elimination with row interchanges of T - lam_j I, every
    column j at once.  Row i of the factors: multiplier ``low``, U's three
    diagonals ``u0``/``u1``/``u2`` and whether rows i and i+1 swapped.  A
    pivot below ptol in magnitude is raised to ptol."""
    m, k = len(diag), len(lam)
    u0 = diag[:, None] - lam[None, :]
    u1 = np.repeat(off[:, None], k, axis=1)
    u2 = np.zeros((max(m - 2, 0), k))
    low = np.zeros((max(m - 1, 0), k))
    swap = np.zeros((max(m - 1, 0), k), dtype=bool)
    for i in range(m):
        a0 = u0[i]
        a0[np.abs(a0) < ptol] = ptol
        if i == m - 1 or off[i] == 0.0:
            continue
        e, e_next = off[i], off[i + 1] if i + 2 < m else 0.0
        sw = np.abs(a0) < abs(e)
        a1, b0 = u1[i].copy(), u0[i + 1].copy()
        pivot = np.where(sw, e, a0)
        fact = np.where(sw, a0, e) / pivot
        u0[i], u1[i] = pivot, np.where(sw, b0, a1)
        u0[i + 1] = np.where(sw, a1, b0) - fact * u1[i]
        if i + 2 < m:
            u2[i] = np.where(sw, e_next, 0.0)
            u1[i + 1] = np.where(sw, 0.0, e_next) - fact * u2[i]
        low[i], swap[i] = fact, sw
    return low, u0, u1, u2, swap


def _tridiagonal_solve(low, u0, u1, u2, swap, b):
    """Solve with the factors of ``_tridiagonal_lu``, one column per shift."""
    m = len(u0)
    b = b.copy()
    for i in range(m - 1):
        top = np.where(swap[i], b[i + 1], b[i])
        b[i + 1] = np.where(swap[i], b[i], b[i + 1]) - low[i] * top
        b[i] = top
    b[m - 1] /= u0[m - 1]
    if m > 1:
        b[m - 2] = (b[m - 2] - u1[m - 2] * b[m - 1]) / u0[m - 2]
    for i in range(m - 3, -1, -1):
        b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / u0[i]
    return b


def symmetric_eig(a: np.ndarray, threshold: float = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix: every pair, or with
    ``threshold`` only the pairs USVT keeps, those with |eigenvalue| at or
    above ``usvt_threshold(a, threshold)``.

    The LAPACK route (dsytrd, dstebz, dstein) in numpy: Householder
    tridiagonalisation T = Q^T a Q; a split of T wherever an off-diagonal
    is below eps |T|; Sturm counts at plus and minus the threshold, which
    give the kept rank without computing any eigenvalue; vectorised
    multisection for the wanted eigenvalues; inverse iteration for their
    vectors; the back transformation by Q.  Sorted by descending
    |eigenvalue|, and the same bits on every call.
    """
    a = _check_symmetric(a, "symmetric_eig")
    m = a.shape[0]
    if m == 0:
        return SpectralDecomposition(np.zeros(0), np.zeros((0, 0)))
    diag, off, refl = _tridiagonalize(a)
    tnorm = float(np.max(np.abs(diag) + np.r_[np.abs(off), 0.0] + np.r_[0.0, np.abs(off)]))
    off[np.abs(off) <= _EPS * tnorm] = 0.0
    starts = np.flatnonzero(np.r_[True, off == 0.0])
    ends = np.r_[starts[1:], m]
    off2 = off * off
    pivmin = _SAFE_MIN * max(1.0, float(off2.max()) if m > 1 else 1.0)

    # every eigenvalue as (block, ascending index within the block)
    block = np.repeat(np.arange(len(starts)), ends - starts)
    index = np.arange(m) - starts[block]
    fudge = 2.1 * (m * _EPS * tnorm + 2.0 * pivmin)
    lower, upper = np.full(m, -tnorm - fudge), np.full(m, tnorm + fudge)
    cut = None if threshold is None else usvt_threshold(a, threshold)
    if cut is not None and cut > 0:
        below = _sturm_counts(diag, off2, pivmin, np.tile([-cut, cut], (len(starts), 1)),
                              starts, ends)
        negative = index < below[block, 0]
        keep = negative | (index >= below[block, 1])
        upper[negative] = -cut
        lower[~negative] = cut
        block, index, lower, upper = block[keep], index[keep], lower[keep], upper[keep]

    lam = diag[starts[block]]  # exact for 1 x 1 blocks
    vecs = np.zeros((m, len(block)))
    single = ends[block] - starts[block] == 1
    vecs[starts[block[single]], np.flatnonzero(single)] = 1.0
    many = ~single
    if many.any():
        first, last = starts[block[many]], ends[block[many]]
        lam[many] = _multisection(diag, off2, pivmin, first, last, index[many],
                                  lower[many], upper[many], _EPS * tnorm + pivmin)
        vecs[:, many] = _inverse_iteration(diag, off, lam[many], first, last, tnorm)
    for k in range(len(refl) - 1, -1, -1):
        v = refl[k, k + 1:]
        vecs[k + 1:] -= np.outer(v, 2.0 * (v @ vecs[k + 1:]))
    order = np.argsort(-np.abs(lam), kind="stable")
    return SpectralDecomposition(lam[order], vecs[:, order])


def usvt_with_rank(a: np.ndarray, tau: float):
    """Thresholded spectral estimate of the edge-probability matrix and the
    number of spectral components kept.

    Only the kept components are computed; when ``rank0_certified`` holds
    there are none and the decomposition is skipped.
    """
    if not (tau > 0):
        raise ConfigError(f"usvt_with_rank: tau must be positive, got {tau}")
    a = _check_symmetric(a, "usvt_with_rank")
    m = a.shape[0]
    if rank0_certified(a, tau):
        return np.zeros((m, m)), 0
    dec = symmetric_eig(a, threshold=tau * math.sqrt(m))
    u = dec.eigenvectors
    theta = np.clip((u * dec.eigenvalues) @ u.T, 0.0, 1.0)
    theta = 0.5 * (theta + theta.T)
    return theta, len(dec.eigenvalues)


def usvt_estimate(a: np.ndarray, tau: float) -> np.ndarray:
    """USVT: the spectral components whose |eigenvalue| reaches tau*sqrt(m)
    (ties kept: within the slack of ``usvt_threshold``), summed and
    clipped entrywise to [0,1]."""
    theta, _ = usvt_with_rank(a, tau)
    return theta


def sample_augmentation(theta: np.ndarray, seed) -> np.ndarray:
    """One Bernoulli draw per upper-triangle entry, mirrored; zero diagonal."""
    if np.any(theta < 0) or np.any(theta > 1):
        raise ContractError("sample_augmentation: probabilities must lie in [0,1]")
    m = theta.shape[0]
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(m, k=1)
    draws = (rng.random(len(iu[0])) < theta[iu]).astype(np.float64)
    out = np.zeros((m, m))
    out[iu] = draws
    return out + out.T


def generate_sbm(block_sizes, intra: float, inter: float, seed) -> Graph:
    """Stochastic block model sample with degree features attached."""
    for p in (intra, inter):
        if not (0.0 <= p <= 1.0):
            raise ConfigError(f"generate_sbm: probability {p} outside [0,1]")
    adjacency = sample_augmentation(sbm_probability_matrix(block_sizes, intra, inter), seed)
    g = Graph(int(adjacency.shape[0]), adjacency, np.zeros((adjacency.shape[0], 1)))
    g.features = adjacency.sum(axis=1, keepdims=True)
    return g


def sbm_probability_matrix(block_sizes, intra: float, inter: float) -> np.ndarray:
    """Edge probability ``intra`` within a block and ``inter`` across blocks."""
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    same = labels[:, None] == labels[None, :]
    return np.where(same, intra, inter).astype(np.float64)


def edge_drop_baseline(g: Graph, rate: float, seed) -> Graph:
    """Remove each existing edge independently with the given probability."""
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"edge_drop_baseline: rate {rate} outside [0,1]")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(g.n, k=1)
    keep = rng.random(len(iu[0])) >= rate
    out = np.zeros((g.n, g.n))
    out[iu] = g.adjacency[iu] * keep
    return Graph(g.n, out + out.T, g.features, g.label)


# ---------------------------------------------------------------------------
# augmenter objects used by pretraining and the CLI
# ---------------------------------------------------------------------------

class LgaAugmenter:
    """Draws positives from a cached spectral estimate of each anchor.

    The estimate is computed once per graph (the eigendecomposition
    dominates), while every (graph index, epoch) pair gets an independent
    reproducible sampling stream.
    """

    name = "lga"

    def __init__(self, tau: float, seed: int = 0):
        if not (tau > 0):
            raise ConfigError(f"LgaAugmenter: tau must be positive, got {tau}")
        self.tau = tau
        self.seed = seed
        self._cache = weakref.WeakKeyDictionary()

    def _estimate(self, g: Graph):
        cached = self._cache.get(g)
        if cached is None:
            cached = usvt_with_rank(g.adjacency, self.tau)
            self._cache[g] = cached
        return cached

    def kept_rank(self, g: Graph) -> int:
        return self._estimate(g)[1]

    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        theta, _ = self._estimate(g)
        adjacency = sample_augmentation(theta, [self.seed, index, epoch])
        return Graph(g.n, adjacency, g.features, g.label)


class EdgeDropAugmenter:
    name = "edge-drop"

    def __init__(self, rate: float, seed: int = 0):
        if not (0.0 <= rate <= 1.0):
            raise ConfigError(f"EdgeDropAugmenter: rate {rate} outside [0,1]")
        self.rate = rate
        self.seed = seed

    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        return edge_drop_baseline(g, self.rate, [self.seed, index, epoch])


class IdentityAugmenter:
    name = "identity"

    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        return g


def make_augmenter(name: str, *, tau: float, drop_rate: float, seed: int):
    if name == "lga":
        return LgaAugmenter(tau, seed)
    if name == "edge-drop":
        return EdgeDropAugmenter(drop_rate, seed)
    if name == "identity":
        return IdentityAugmenter()
    raise ConfigError(f"unknown augmenter {name!r} (expected lga, edge-drop or identity)")
