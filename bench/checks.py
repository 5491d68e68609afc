"""Output checks, each computed apart from the program or taken from a
property the method must have.

Every check returns None when the output passes and a one-line reason
when it does not.  They read parameters through public state
(``to_state``, tensor ``.data``) and rebuild the quantity with plain
numpy: explicit matrices, ``matrix_power`` and ``np.linalg.eigh``.
"""

from __future__ import annotations

import math

import numpy as np

ENC_RTOL = 1e-9
FD_RTOL = 1e-5
USVT_ATOL = 1e-9


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def ppr_diffusion(adj: np.ndarray, alpha: float, depth: int) -> np.ndarray:
    """sum_j alpha (1-alpha)^j T^j with T = D^-1/2 A D^-1/2 built explicitly."""
    deg = adj.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = deg[deg > 0] ** -0.5
    t = np.diag(inv_sqrt) @ adj @ np.diag(inv_sqrt)
    return sum(alpha * (1 - alpha) ** j * np.linalg.matrix_power(t, j)
               for j in range(depth + 1))


def kernel_oracle(adj, features, state: dict, max_walk: int, alpha: float,
                  depth: int) -> np.ndarray:
    """trace(B^p S B'^p S^T) for every hidden graph (major) and p (minor)."""
    b = ppr_diffusion(adj, alpha, depth)
    xm = features @ state["fm_weight"] + state["fm_bias"]
    out = []
    h = 0
    while f"hg{h}_raw" in state:
        raw = state[f"hg{h}_raw"]
        m = raw.shape[0]
        b_hid = 0.5 * (1.0 + np.tanh(0.25 * (raw + raw.T))) * (1.0 - np.eye(m))
        s = xm @ state[f"hg{h}_features"].T
        for p in range(1, max_walk + 1):
            out.append(np.trace(np.linalg.matrix_power(b, p) @ s
                                @ np.linalg.matrix_power(b_hid, p) @ s.T))
        h += 1
    return np.array(out)


def check_encoder_oracle(graphs, rows: np.ndarray, state: dict, kcfg) -> str | None:
    """Encoder rows against the plain-numpy kernel for the same graphs."""
    d = kcfg.diffusion
    for g, row in zip(graphs, rows):
        want = kernel_oracle(g.adjacency, g.features, state, kcfg.max_walk,
                             d.alpha, d.depth)
        if row.shape != want.shape or not np.allclose(row, want, rtol=ENC_RTOL, atol=0):
            err = np.max(np.abs(row - want) / np.maximum(np.abs(want), 1e-300)) \
                if row.shape == want.shape else math.inf
            return f"encoding differs from the numpy oracle on a {g.n}-node graph (rel {err:.2e})"
    return None


def check_permutation(rows: np.ndarray, permuted_rows: np.ndarray) -> str | None:
    """Encodings of node-permuted graphs equal the originals."""
    if not np.allclose(rows, permuted_rows, rtol=ENC_RTOL, atol=0):
        return "encoding changed under a node permutation"
    return None


def check_directional_derivative(loss_at, params: list, grads: list, rng) -> str | None:
    """Central difference of the loss along a random direction v against
    <grad, v>.  ``loss_at()`` rebuilds the scalar loss from the current
    values of the leaf tensors ``params``; ``grads`` are the gradients that
    backward gave for them."""
    dirs = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in dirs))
    dirs = [v / norm for v in dirs]
    analytic = sum(float(np.sum(g * v)) for g, v in zip(grads, dirs))
    originals = [p.data.copy() for p in params]
    eps = 1e-5
    try:
        for p, x, v in zip(params, originals, dirs):
            p.data = x + eps * v
        up = loss_at()
        for p, x, v in zip(params, originals, dirs):
            p.data = x - eps * v
        down = loss_at()
    finally:
        for p, x in zip(params, originals):
            p.data = x
    numeric = (up - down) / (2 * eps)
    if abs(numeric - analytic) > FD_RTOL * max(1.0, abs(numeric), abs(analytic)):
        return f"directional derivative {analytic:.9g} != central difference {numeric:.9g}"
    return None


# ---------------------------------------------------------------------------
# training outputs
# ---------------------------------------------------------------------------

def check_losses(curves: list, must_decrease: bool) -> str | None:
    """All losses finite; optionally the fold-mean last-epoch loss is below
    the fold-mean first-epoch loss."""
    if not curves or not all(np.all(np.isfinite(c)) and len(c) for c in curves):
        return "a loss curve is empty or holds a non-finite loss"
    if must_decrease:
        first = np.mean([c[0] for c in curves])
        last = np.mean([c[-1] for c in curves])
        if not last < first:
            return f"mean loss did not fall: first epoch {first:.6g}, last {last:.6g}"
    return None


def check_partition(folds: list, n: int) -> str | None:
    """Fold test sets are disjoint and cover every graph."""
    tests = [i for f in folds for i in f.test_idx]
    if sorted(tests) != list(range(n)):
        return "fold test sets do not partition the dataset"
    return None


def check_unchanged(before: list, after: list) -> str | None:
    """Parameter states (dicts of arrays) are bitwise equal."""
    for f, (a, b) in enumerate(zip(before, after)):
        if a.keys() != b.keys() or not all(np.array_equal(a[k], b[k]) for k in a):
            return f"encoder parameters of fold {f} changed"
    if len(before) != len(after):
        return "fold count changed"
    return None


# ---------------------------------------------------------------------------
# latent graph augmentation
# ---------------------------------------------------------------------------

def usvt_eigh(adj: np.ndarray, tau: float):
    """(theta, kept rank) by LAPACK; None when an eigenvalue sits on the
    tau*sqrt(n) threshold, where the kept rank is ill-defined."""
    n = adj.shape[0]
    w, v = np.linalg.eigh(adj)
    threshold = tau * math.sqrt(n)
    if np.any(np.abs(np.abs(w) - threshold) < 1e-8 * max(1.0, threshold)):
        return None
    keep = np.abs(w) >= threshold
    theta = np.clip((v[:, keep] * w[keep]) @ v[:, keep].T, 0.0, 1.0)
    return 0.5 * (theta + theta.T), int(keep.sum())


def check_usvt(adj, tau, theta, rank) -> str | None:
    want = usvt_eigh(adj, tau)
    if want is None:
        return None
    if rank != want[1]:
        return f"kept rank {rank} != {want[1]} from eigh"
    if theta is not None and not np.allclose(theta, want[0], rtol=0, atol=USVT_ATOL):
        return f"theta differs from eigh USVT by {np.max(np.abs(theta - want[0])):.2e}"
    return None


def check_positive(adj: np.ndarray, support: np.ndarray) -> str | None:
    """A sampled positive is a symmetric 0/1 matrix with zero diagonal whose
    edges lie where ``support`` is true."""
    if not np.array_equal(adj, adj.T):
        return "positive is not symmetric"
    if not np.all((adj == 0) | (adj == 1)):
        return "positive is not 0/1"
    if np.any(np.diag(adj) != 0):
        return "positive has a self-loop"
    if np.any(adj[~support] != 0):
        return "positive has an edge outside the support"
    return None


def check_sbm_estimate(theta, adj, prob) -> str | None:
    """The spectral estimate is closer to the generating matrix than the
    observed adjacency is."""
    est, obs = np.mean(np.abs(theta - prob)), np.mean(np.abs(adj - prob))
    if not est < obs:
        return f"mean |theta-P| {est:.4f} not below mean |A-P| {obs:.4f}"
    return None


def mlp_numpy(state: dict, x: np.ndarray) -> np.ndarray:
    return np.maximum(x @ state["w1"] + state["b1"], 0.0) @ state["w2"] + state["b2"]


def infonce_numpy(anchors, positives, head_state) -> float:
    """Mean over rows of logsumexp(sim_i) - sim_ii, sim = z_a z_p^T."""
    sim = mlp_numpy(head_state, anchors) @ mlp_numpy(head_state, positives).T
    peak = sim.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(sim - peak).sum(axis=1))
    return float(np.mean(lse - np.diag(sim)))


def check_infonce(loss: float, anchors, positives, head_state) -> str | None:
    want = infonce_numpy(anchors, positives, head_state)
    if not math.isclose(loss, want, rel_tol=1e-9, abs_tol=1e-12):
        return f"infonce {loss!r} != log-sum-exp recomputation {want!r}"
    return None


# ---------------------------------------------------------------------------
# written files
# ---------------------------------------------------------------------------

def check_roundtrip(loaded: list, expected: list) -> str | None:
    """Graphs loaded from written TU files equal the expected ones."""
    if len(loaded) != len(expected):
        return f"{len(loaded)} graphs loaded, {len(expected)} written"
    for i, (a, b) in enumerate(zip(loaded, expected)):
        if (a.n != b.n or a.label != b.label or not np.array_equal(a.adjacency, b.adjacency)
                or not np.array_equal(a.features, b.features)):
            return f"graph {i} does not load back as written"
    return None
