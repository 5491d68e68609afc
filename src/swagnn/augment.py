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

_OFFDIAG_TOL = 1e-12
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class AugmenterConfig:
    tau: float = 2.02
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"AugmenterConfig: tau must be positive, got {self.tau}")


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a symmetric matrix, sorted by descending |eigenvalue|."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self, keep: int = None) -> np.ndarray:
        k = len(self.eigenvalues) if keep is None else keep
        u = self.eigenvectors[:, :k]
        return (u * self.eigenvalues[:k]) @ u.T


def _check_symmetric(a: np.ndarray, where: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ContractError(f"{where}: input must be square")
    if m and np.max(np.abs(a - a.T)) > _OFFDIAG_TOL:
        raise ContractError(f"{where}: input is not symmetric")
    return a


def _round_robin(m: int) -> list:
    """Round-robin schedule of the pairs (p, q), p < q, of m indices.

    Each round holds disjoint pairs, and every pair meets once over the
    rounds: m - 1 rounds for even m; for odd m a dummy index m pads the
    ring and its partner sits the round out.
    """
    size = m + m % 2
    ring = np.arange(size)
    rounds = []
    for _ in range(size - 1):
        a, b = ring[:size // 2], ring[size // 2:][::-1]
        real = (a < m) & (b < m)
        rounds.append((np.minimum(a, b)[real], np.maximum(a, b)[real]))
        ring = np.concatenate([ring[:1], ring[-1:], ring[1:-1]])
    return rounds


def symmetric_eig(a: np.ndarray) -> SpectralDecomposition:
    """Round-robin Jacobi eigendecomposition of a symmetric matrix.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    (p, q) pairs (the parallel ordering of Brent and Luk): rotations in a
    round touch different rows and columns, so their angles all follow
    from the matrix at the start of the round and they apply together as
    one row update, one column update and one eigenvector update.  Sweeps
    repeat until every off-diagonal magnitude drops below 1e-12; the
    diagonal then holds the eigenvalues and the accumulated rotations the
    eigenvector columns.
    """
    a = _check_symmetric(a, "symmetric_eig")
    m = a.shape[0]
    work = 0.5 * (a + a.T)
    vecs_t = np.eye(m)  # eigenvectors as rows, so updates touch contiguous rows
    off_mask = ~np.eye(m, dtype=bool)
    skip = _OFFDIAG_TOL / (10 * max(m, 1))
    schedule = _round_robin(m)

    def max_offdiag():
        return np.max(np.abs(work[off_mask])) if m > 1 else 0.0

    for _ in range(_MAX_SWEEPS):
        if max_offdiag() < _OFFDIAG_TOL:
            break
        for p, q in schedule:
            apq = work[p, q]
            live = np.abs(apq) >= skip
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
                if not len(p):
                    continue
            theta = (work[q, q] - work[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cr, sr = c[:, None], s[:, None]
            row_p, row_q = work[p], work[q]
            work[p] = cr * row_p - sr * row_q
            work[q] = sr * row_p + cr * row_q
            col_p, col_q = work[:, p], work[:, q]
            work[:, p] = c * col_p - s * col_q
            work[:, q] = s * col_p + c * col_q
            vec_p, vec_q = vecs_t[p], vecs_t[q]
            vecs_t[p] = cr * vec_p - sr * vec_q
            vecs_t[q] = sr * vec_p + cr * vec_q
    else:
        residual = max_offdiag()
        if residual >= _OFFDIAG_TOL:
            raise NumericalError(f"symmetric_eig: no convergence after {_MAX_SWEEPS} "
                                 f"sweeps, off-diagonal residual {residual:.3e}")

    values = np.diag(work).copy()
    order = np.argsort(-np.abs(values), kind="stable")
    return SpectralDecomposition(values[order], vecs_t[order].T)


def usvt_with_rank(a: np.ndarray, tau: float):
    """Thresholded spectral estimate of the edge-probability matrix and the
    number of spectral components kept.

    Every |eigenvalue| is at most the largest absolute row sum, so when
    that sum is below tau*sqrt(m) no component can be kept and the
    decomposition is skipped.
    """
    a = _check_symmetric(a, "usvt_with_rank")
    m = a.shape[0]
    threshold = tau * math.sqrt(m)
    if m and np.abs(a).sum(axis=1).max() < threshold:
        return np.zeros((m, m)), 0
    dec = symmetric_eig(a)
    kept = np.abs(dec.eigenvalues) >= threshold
    u = dec.eigenvectors[:, kept]
    theta = (u * dec.eigenvalues[kept]) @ u.T
    theta = np.clip(theta, 0.0, 1.0)
    theta = 0.5 * (theta + theta.T)
    return theta, int(kept.sum())


def usvt_estimate(a: np.ndarray, tau: float) -> np.ndarray:
    """Spectral components with magnitude >= tau*sqrt(m) (ties kept),
    reconstructed and clipped entrywise to [0,1]."""
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
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    same = labels[:, None] == labels[None, :]
    theta = np.where(same, intra, inter).astype(np.float64)
    adjacency = sample_augmentation(theta, seed)
    g = Graph(int(adjacency.shape[0]), adjacency, np.zeros((adjacency.shape[0], 1)))
    g.features = adjacency.sum(axis=1, keepdims=True)
    return g


def sbm_probability_matrix(block_sizes, intra: float, inter: float) -> np.ndarray:
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
        if tau <= 0:
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


def make_augmenter(name: str, tau: float = 2.02, drop_rate: float = 0.2,
                   seed: int = 0):
    if name == "lga":
        return LgaAugmenter(tau, seed)
    if name == "edge-drop":
        return EdgeDropAugmenter(drop_rate, seed)
    if name == "identity":
        return IdentityAugmenter()
    raise ConfigError(f"unknown augmenter {name!r} (expected lga, edge-drop or identity)")
