"""Latent graph augmentation.

An anchor graph's adjacency is treated as a noisy realization of an
edge-probability matrix.  Spectral thresholding recovers an estimate of
that matrix, and positives for self-supervision are drawn from it as
fresh Bernoulli samples.  Node features always carry over verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericalError
from .graphs import Graph, cached

_SYMMETRY_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
_SAFE_MIN = float(np.finfo(np.float64).tiny)
# dsyev's range for the largest |entry| (rmin, rmax): outside it the
# reduction's squares could overflow or underflow, so the matrix is scaled
_SCALE_MIN = math.sqrt(_SAFE_MIN / _EPS)
_SCALE_MAX = 1.0 / _SCALE_MIN
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
    with np.errstate(over="ignore"):  # an infinite difference is still asymmetric
        asymmetry = np.max(np.abs(a - a.T)) if m else 0.0
    if asymmetry > _SYMMETRY_TOL:
        raise ContractError(f"{where}: input is not symmetric")
    return a


def _inf_norm(a: np.ndarray) -> float:
    """Largest absolute row sum, a bound on every |eigenvalue|.  A sum
    beyond the float range raises NumericalError."""
    if not a.size:
        return 0.0
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=1).max())
    if norm == math.inf:
        raise NumericalError(f"the largest absolute row sum of a {a.shape[0]} x {a.shape[0]} "
                             "matrix exceeds the float range")
    return norm


def usvt_threshold(a: np.ndarray, threshold: float) -> float:
    """The effective threshold: ``threshold`` less the tie slack
    8 n eps |A|_inf, so that an eigenvalue sitting on the threshold is kept
    whatever its last bits."""
    return threshold - _TIE_MULTIPLE * a.shape[0] * _EPS * _inf_norm(a)


def rank0_certified(a: np.ndarray, tau: float) -> bool:
    """True when no spectral component can reach tau*sqrt(n): every
    |eigenvalue| is at most the largest absolute row sum, and that sum is
    below the effective threshold.  Needs no decomposition.  A row sum
    beyond the float range raises NumericalError."""
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
        r = v[:, None] * (p - (v @ p) * v)
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
    (LAPACK's guard), which keeps every division finite.

    A first pass runs without the guard.  Until a pivot falls below pivmin
    the two passes do the same arithmetic, so the guarded pass reruns only
    when some pivot of the first one is that small (or not a number); an
    unguarded pivot cannot overflow before one is, since |off2 / pivot|
    stays below 1 / tiny."""
    piv = diag[:, None] - shifts.ravel()[None, :]
    rows = list(piv)
    with np.errstate(all="ignore"):  # a tiny pivot may divide by zero here
        for prev, row, e2 in zip(rows, rows[1:], off2):
            row -= e2 / prev
    if not np.abs(piv).min() >= pivmin:
        piv = diag[:, None] - shifts.ravel()[None, :]
        for i, row in enumerate(piv):
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
    d, e = diag.tolist(), off.tolist()
    factors = [_tridiagonal_lu(d, e, x, _EPS * tnorm) for x in lam.tolist()]
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
            for j, c in enumerate(cols):
                x[:, j] = _tridiagonal_solve(factors[c], x[:, j].tolist())
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
    """Gaussian elimination with row interchanges of T - lam I for one
    eigenvalue, on lists of Python floats: a row is a handful of scalar
    operations, which numpy calls would cost more than they do.  Row i of
    the factors: multiplier ``low``, U's three diagonals ``u0``/``u1``/
    ``u2`` and whether rows i and i+1 swapped.  A pivot below ptol in
    magnitude is raised to ptol."""
    m = len(diag)
    u0 = [d - lam for d in diag]
    u1 = list(off)
    u2 = [0.0] * max(m - 2, 0)
    low = [0.0] * max(m - 1, 0)
    swap = [False] * max(m - 1, 0)
    for i in range(m):
        a0 = u0[i]
        if abs(a0) < ptol:
            a0 = u0[i] = ptol
        if i == m - 1 or off[i] == 0.0:
            continue
        e = off[i]
        sw = abs(a0) < abs(e)
        a1, b0 = u1[i], u0[i + 1]
        fact = a0 / e if sw else e / a0
        if sw:
            u0[i], u1[i] = e, b0
        u0[i + 1] = (a1 if sw else b0) - fact * u1[i]
        if i + 2 < m:
            u2[i] = off[i + 1] if sw else 0.0
            u1[i + 1] = (0.0 if sw else off[i + 1]) - fact * u2[i]
        low[i], swap[i] = fact, sw
    return low, u0, u1, u2, swap


def _tridiagonal_solve(factors, b):
    """Solve with the factors of ``_tridiagonal_lu`` for the list ``b``."""
    low, u0, u1, u2, swap = factors
    y, cur = [], b[0]  # cur: row i of L^-1 b, which step i may still swap
    for f, sw, nxt in zip(low, swap, b[1:]):
        if sw:
            y.append(nxt)
            cur = cur - f * nxt
        else:
            y.append(cur)
            cur = nxt - f * cur
    x = [cur / u0[-1]]
    if len(u0) > 1:
        x.append((y[-1] - u1[-1] * x[-1]) / u0[-2])
    for yi, d, e, e2 in zip(y[-2::-1], u0[-3::-1], u1[-2::-1], u2[::-1]):
        x.append((yi - e * x[-1] - e2 * x[-2]) / d)
    return x[::-1]


def symmetric_eig(a: np.ndarray, threshold: float = None) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix: every pair, or with
    ``threshold`` only the pairs USVT keeps, those with |eigenvalue| at or
    above ``usvt_threshold(a, threshold)``.

    The LAPACK route (dsytrd, dstebz, dstein) in numpy: Householder
    tridiagonalisation T = Q^T a Q; a split of T wherever an off-diagonal
    is below eps |T|; Sturm counts at plus and minus the threshold, which
    give the kept rank without computing any eigenvalue; vectorised
    multisection for the wanted eigenvalues; inverse iteration for their
    vectors; the back transformation by Q.  The Sturm passes run over all
    shifts at once, a row per numpy call, and retry with LAPACK's pivot
    guard only when a pivot needs it; inverse iteration factors and solves
    one eigenvalue at a time in Python floats.  Sorted by descending
    |eigenvalue|, and the same bits on every call.

    As in dsyev, a matrix whose largest |entry| lies outside [_SCALE_MIN,
    _SCALE_MAX] is solved, together with the threshold, scaled by the power
    of two that brings that entry into [0.5, 1); the scaling is exact, and
    the eigenvalues are scaled back.  An eigenvalue that lies beyond the
    float range raises NumericalError.
    """
    a = _check_symmetric(a, "symmetric_eig")
    m = a.shape[0]
    if m == 0:
        return SpectralDecomposition(np.zeros(0), np.zeros((0, 0)))
    anrm = float(np.abs(a).max())
    shift = 0 if anrm == 0 or _SCALE_MIN <= anrm <= _SCALE_MAX else -math.frexp(anrm)[1]
    if shift:
        a = np.ldexp(a, shift)
        if threshold is not None:
            with np.errstate(over="ignore"):  # an infinite threshold still keeps nothing
                threshold = float(np.ldexp(threshold, shift))
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
        vecs[k + 1:] -= v[:, None] * (2.0 * (v @ vecs[k + 1:]))
    order = np.argsort(-np.abs(lam), kind="stable")
    with np.errstate(over="ignore"):
        lam = np.ldexp(lam[order], -shift)
    if np.isinf(lam).any():
        raise NumericalError(f"symmetric_eig: an eigenvalue of the {m} x {m} input exceeds "
                             "the float range")
    return SpectralDecomposition(lam, vecs[:, order])


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
    """One Bernoulli draw per upper-triangle entry, mirrored; zero diagonal.
    A theta that is not a square matrix of probabilities raises
    ContractError."""
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ContractError(f"sample_augmentation: theta of shape {theta.shape} is not a "
                            "square matrix")
    # min and max propagate NaN, which then fails both comparisons
    if not (theta.min(initial=0.0) >= 0 and theta.max(initial=1.0) <= 1):
        raise ContractError("sample_augmentation: theta holds a value outside [0, 1] or NaN")
    m = theta.shape[0]
    rng = np.random.default_rng(seed)
    upper = _upper_triangle(m)
    out = np.zeros((m, m))
    out[upper] = rng.random(m * (m - 1) // 2) < theta[upper]
    return out + out.T


def _upper_triangle(n: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle.  Boolean indexing walks
    it row-major, the order of ``np.triu_indices``, so each pair gets the
    same draw of the RNG stream."""
    return ~np.tri(n, dtype=bool)


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
    upper = _upper_triangle(g.n)
    out = np.zeros((g.n, g.n))
    out[upper] = g.adjacency[upper] * (rng.random(g.n * (g.n - 1) // 2) >= rate)
    return Graph(g.n, out + out.T, g.features, g.label)


# ---------------------------------------------------------------------------
# augmenter objects used by pretraining and the CLI
# ---------------------------------------------------------------------------

class LgaAugmenter:
    """Draws positives from a cached spectral estimate of each anchor.

    The estimate is computed once per graph and τ (the eigendecomposition
    dominates) and kept on the graph, shared by every augmenter with that
    τ, while every (graph index, epoch) pair gets an independent
    reproducible sampling stream.  An estimate that is zero everywhere
    (every rank-0 one is) can only draw the edgeless graph, so that
    positive is built once with the anchor's features and label, kept in
    place of the estimate and returned for every (index, epoch) with a
    read-only adjacency: treat a returned positive as read-only.
    """

    def __init__(self, tau: float, seed: int = 0):
        if not (tau > 0):
            raise ConfigError(f"LgaAugmenter: tau must be positive, got {tau}")
        self.tau = tau
        self.seed = seed

    def _estimate(self, g: Graph):
        """(theta or None, kept rank, the edgeless positive or None) of ``g``."""
        def compute():
            theta, rank = usvt_with_rank(g.adjacency, self.tau)
            if theta.any():
                return theta, rank, None
            empty = Graph(g.n, np.zeros((g.n, g.n)), g.features, g.label)
            empty.adjacency.flags.writeable = False  # shared by every epoch
            return None, rank, empty
        return cached(g, ("lga", self.tau), compute)

    def kept_rank(self, g: Graph) -> int:
        return self._estimate(g)[1]

    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        theta, _, empty = self._estimate(g)
        if empty is not None:
            return empty
        adjacency = sample_augmentation(theta, [self.seed, index, epoch])
        return Graph(g.n, adjacency, g.features, g.label)


class EdgeDropAugmenter:
    def __init__(self, rate: float, seed: int = 0):
        if not (0.0 <= rate <= 1.0):
            raise ConfigError(f"EdgeDropAugmenter: rate {rate} outside [0,1]")
        self.rate = rate
        self.seed = seed

    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        return edge_drop_baseline(g, self.rate, [self.seed, index, epoch])


class IdentityAugmenter:
    def augment(self, g: Graph, index: int, epoch: int) -> Graph:
        return g


# augmenter name -> constructor from the run's knobs
AUGMENTERS = {"lga": lambda tau, drop_rate, seed: LgaAugmenter(tau, seed),
              "edge-drop": lambda tau, drop_rate, seed: EdgeDropAugmenter(drop_rate, seed),
              "identity": lambda tau, drop_rate, seed: IdentityAugmenter()}


def make_augmenter(name: str, *, tau: float, drop_rate: float, seed: int):
    if name not in AUGMENTERS:
        raise ConfigError(f"unknown augmenter {name!r} (expected one of {', '.join(AUGMENTERS)})")
    return AUGMENTERS[name](tau, drop_rate, seed)
