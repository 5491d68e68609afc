"""Hidden-graph kernel encoder.

A graph is compared against M small trainable hidden graphs through a
random-walk kernel smoothed by graph diffusion.  The kernel value for
walk length p is trace(B^p S B'^p S^T) with S the cross inner-product
matrix between mapped input features and hidden features; the encoding
concatenates these scalars for p = 1..P over all hidden graphs.

``SwagParams`` holds the encoder as four tensors: the feature map's
weight and bias, and the hidden-graph bank stacked as one M x m x m
tensor of raw weights and one M x m x d_h tensor of features.
``hidden_adjacencies`` turns the raw weights into every hidden graph's
adjacency at once (hidden-graph export uses it too), and the numpy forward
and backward both take the hidden walks B'^p F from ``_hidden_walks``,
one batched product per walk length over the whole bank.  ``HiddenGraph``,
``hidden_adjacency`` and ``smoothed_kernel`` are the same kernel for one
hidden graph on the autodiff tape, kept as the oracle the encoder is
checked against.

With X~ = [X 1] and W~ = [W; b^T] (the feature map as one matrix) the
kernel factors as <X~^T B^p X~, W~ F^T B'^p F W~^T>.  The forward does not
use this (its rounding is pinned to the node-level products), but the
backward does: it differentiates through each graph's (d+1) x (d+1) walk
statistics, so ``encode_batch`` keeps nothing sized by the node count
between the forward and the backward.  Like the diffusion, the walk
statistics depend on the graph alone and are computed once per graph and
cached with it, so a graph seen in many batches, epochs or folds pays for
them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .graphs import DiffusionConfig, Graph, cached, diffuse


@dataclass(frozen=True)
class KernelConfig:
    num_hidden: int = 16
    hidden_nodes: int = 10
    hidden_dim: int = 32
    max_walk: int = 3
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)

    def __post_init__(self):
        if self.num_hidden < 1:
            raise ConfigError(f"KernelConfig: num_hidden must be >= 1, got {self.num_hidden}")
        if self.hidden_nodes < 2:
            raise ConfigError(f"KernelConfig: hidden_nodes must be >= 2, got {self.hidden_nodes}")
        if self.hidden_dim < 1:
            raise ConfigError(f"KernelConfig: hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.max_walk < 1:
            raise ConfigError(f"KernelConfig: max_walk must be >= 1, got {self.max_walk}")

    @property
    def output_dim(self) -> int:
        return self.num_hidden * self.max_walk


class HiddenGraph:
    """One trainable weighted graph on a fixed small node set, as tape
    leaves: the form ``smoothed_kernel`` takes.  The encoder keeps its
    hidden graphs stacked in ``SwagParams`` instead."""

    def __init__(self, raw_weights: Tensor, hidden_features: Tensor):
        m = raw_weights.data.shape[0]
        if raw_weights.data.shape != (m, m):
            raise ContractError("HiddenGraph: raw_weights must be square")
        if m < 2:
            raise ContractError("HiddenGraph: needs at least 2 nodes")
        if hidden_features.data.shape[0] != m:
            raise ContractError("HiddenGraph: one feature row per node required")
        self.raw_weights = raw_weights
        self.hidden_features = hidden_features


def hidden_adjacency(h: HiddenGraph) -> Tensor:
    """Effective adjacency: sigmoid of the symmetrized raw weights with a
    zero diagonal.  Symmetric with entries in (0,1) by construction."""
    sym = ad.scale(h.raw_weights + h.raw_weights.transpose(), 0.5)
    mask = ad.constant(1.0 - np.eye(h.raw_weights.data.shape[0]))
    return sym.sigmoid() * mask


def hidden_adjacencies(raw: np.ndarray) -> np.ndarray:
    """``hidden_adjacency`` of every graph of an M x m x m bank of raw
    weights at once, in numpy, bit for bit the tape's values."""
    m = raw.shape[-1]
    return ad._sigmoid((raw + raw.transpose(0, 2, 1)) * 0.5) * (1.0 - np.eye(m))


class SwagParams:
    """All trainable encoder state, four tape leaves: the feature map
    x -> x W + b (``weight`` d x d_h, ``bias`` d_h) and the bank of M
    hidden graphs on m nodes, stacked as ``raw`` (M x m x m, the weights
    that ``hidden_adjacencies`` turns into adjacencies) and ``features``
    (M x m x d_h)."""

    def __init__(self, weight: Tensor, bias: Tensor, raw: Tensor, features: Tensor):
        if weight.data.ndim != 2 or bias.data.shape != weight.data.shape[1:]:
            raise ContractError("SwagParams: bias length must match the feature map's output dim")
        shape = raw.data.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1] < 2 or shape[1] != shape[2]:
            raise ContractError(f"SwagParams: raw weights of shape {shape} are not M >= 1 "
                                "square matrices on m >= 2 nodes")
        if features.data.shape != shape[:2] + weight.data.shape[1:]:
            raise ContractError("SwagParams: hidden features must be M x m x (feature map "
                                "output dim)")
        self.weight, self.bias, self.raw, self.features = weight, bias, raw, features

    @classmethod
    def init(cls, cfg: KernelConfig, input_dim: int, rng: np.random.Generator) -> "SwagParams":
        m, d_h = cfg.hidden_nodes, cfg.hidden_dim
        raw = np.empty((cfg.num_hidden, m, m))
        features = np.empty((cfg.num_hidden, m, d_h))
        for i in range(cfg.num_hidden):  # each hidden graph's draws, then the map's
            raw[i] = rng.standard_normal((m, m))
            features[i] = rng.standard_normal((m, d_h)) / np.sqrt(d_h)
        bound = 1.0 / np.sqrt(input_dim)
        weight = rng.uniform(-bound, bound, size=(input_dim, d_h))
        bias = rng.uniform(-bound, bound, size=d_h)
        return cls(*map(ad.parameter, (weight, bias, raw, features)))

    def parameters(self) -> list:
        return [self.weight, self.bias, self.raw, self.features]

    def copy(self) -> "SwagParams":
        return SwagParams(*[ad.parameter(p.data.copy()) for p in self.parameters()])

    def to_state(self) -> dict:
        """The saved form: the feature map as ``fm_weight`` and ``fm_bias``,
        hidden graph i as ``hg{i}_raw`` and ``hg{i}_features``."""
        state = {"fm_weight": self.weight.data.copy(), "fm_bias": self.bias.data.copy()}
        for i, (raw, features) in enumerate(zip(self.raw.data, self.features.data)):
            state[f"hg{i}_raw"] = raw.copy()
            state[f"hg{i}_features"] = features.copy()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SwagParams":
        """Inverse of ``to_state``; ``state_array`` checks each entry."""
        weight = state_array(state, "fm_weight", (None, None))
        d_h = weight.shape[1]
        bias = state_array(state, "fm_bias", (d_h,))
        m = state_array(state, "hg0_raw", (None, None)).shape[0]
        count = len({key.split("_", 1)[0] for key in state if key.startswith("hg")})
        raw = [state_array(state, f"hg{i}_raw", (m, m)) for i in range(count)]
        features = [state_array(state, f"hg{i}_features", (m, d_h)) for i in range(count)]
        return cls(*map(ad.parameter, (weight, bias, np.stack(raw), np.stack(features))))


def state_array(state: dict, key: str, shape: tuple) -> np.ndarray:
    """Entry ``key`` of a saved parameter state as an array.  ``shape`` gives
    each axis's length, None where any length fits.  A missing entry
    raises KeyError; one that is not real numbers, has another shape or
    holds a non-finite value raises ContractError naming it."""
    value = np.asarray(state[key])
    if value.dtype.kind not in "iuf":
        raise ContractError(f"entry {key!r} holds {value.dtype} values, not real numbers")
    if value.ndim != len(shape) or any(want not in (None, got)
                                       for want, got in zip(shape, value.shape)):
        want = str(tuple(shape)).replace("None", "n")
        raise ContractError(f"entry {key!r} has shape {value.shape}, expected {want}")
    if not np.all(np.isfinite(value)):
        raise ContractError(f"entry {key!r} holds a non-finite value")
    return value


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def exact_rw_kernel(g: Graph, g2: Graph, p: int) -> float:
    """Reference walk kernel, evaluated as the explicit quadruple sum.

    Counts feature-weighted pairs of length-p walks across the two graphs.
    Deliberately unfactorized so it can serve as an oracle for the trace
    formulation; only usable on small graphs.
    """
    if g.feature_dim != g2.feature_dim:
        raise ContractError("exact_rw_kernel: feature dimensions differ")
    if p < 1:
        raise ContractError(f"exact_rw_kernel: walk length must be >= 1, got {p}")
    ap = np.linalg.matrix_power(g.adjacency, p)
    ap2 = np.linalg.matrix_power(g2.adjacency, p)
    x, x2 = g.features, g2.features
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            for k in range(g2.n):
                for l in range(g2.n):
                    total += float(x[i] @ x2[k]) * ap[i, j] * ap2[k, l] * float(x[j] @ x2[l])
    return total


def smoothed_kernel(B, Xm, h: HiddenGraph, p: int) -> Tensor:
    """trace(B^p S B'^p S^T) with S = Xm @ hidden_features^T.

    Powers are built by repeated multiplication against the accumulated
    n x m product, so no n x n power matrix is ever formed.
    """
    if p < 1:
        raise ContractError(f"smoothed_kernel: walk length must be >= 1, got {p}")
    b = B if isinstance(B, Tensor) else ad.constant(B)
    xm = Xm if isinstance(Xm, Tensor) else ad.constant(Xm)
    if xm.data.shape[1] != h.hidden_features.data.shape[1]:
        raise ContractError("smoothed_kernel: mapped features do not match hidden features")
    if b.data.shape != (xm.data.shape[0],) * 2:
        raise ContractError("smoothed_kernel: B must be square over the graph nodes")

    s = xm @ h.hidden_features.transpose()
    s_t = s.transpose()
    b_hid = hidden_adjacency(h)
    left = b @ s          # B^q S, accumulated
    right = b_hid @ s_t   # B'^q S^T, accumulated
    for _ in range(p - 1):
        left = b @ left
        right = b_hid @ right
    return ad.trace_product(left, right)


def _hidden_walks(raw: np.ndarray, features: np.ndarray, P: int):
    """Every hidden graph's adjacency B' and its walks B'^p F, p = 1..P (P x M x m x d_h)."""
    adj = hidden_adjacencies(raw)
    walks = np.empty((P,) + features.shape)
    np.matmul(adj, features, out=walks[0])
    for q in range(1, P):
        np.matmul(adj, walks[q - 1], out=walks[q])
    return adj, walks


def _encoder_forward(graphs: list, params: SwagParams, cfg: KernelConfig) -> np.ndarray:
    """The one numpy evaluation behind every encoder entry point.

    With S = Xm F^T over the stacked hidden features F (M*m x d_h), the
    kernel for hidden graph h at walk length p is the block-h column sum of
    (B^p S) * (Xm (B'^p F)^T), with the walks of ``_hidden_walks`` copied
    into one contiguous d_h x M*m matrix per p (a strided view rounds
    differently), shared by every graph in the call.  Block sums go through
    a 0/1 ``group`` matmul, whose rounding the encodings are pinned to.
    Graphs run one at a time, so no array spans the batch's nodes.  Returns
    the len(graphs) x M*P encodings, hidden-graph-major, walk-length-minor.
    """
    if not graphs:
        raise ContractError("encode_batch: empty batch")
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    weight, bias = params.weight.data, params.bias.data
    feats = params.features.data.reshape(M * m, -1)
    walks = _hidden_walks(params.raw.data, params.features.data, P)[1]
    right = np.ascontiguousarray(walks.transpose(0, 3, 1, 2)).reshape(P, -1, M * m)
    group = np.repeat(np.eye(M), m, axis=0)  # 1 where row i*m..(i+1)*m meets column i
    out = np.empty((len(graphs), M * P))
    for gi, g in enumerate(graphs):
        if g.adjacency.shape != (g.n, g.n) or g.features.shape != (g.n, len(weight)):
            raise ContractError(f"encode_batch: graph {gi} of the batch has adjacency shape "
                                f"{g.adjacency.shape} and features shape {g.features.shape}, "
                                f"expected ({g.n}, {g.n}) and ({g.n}, {len(weight)})")
        b = diffuse(g, cfg.diffusion)
        xm = g.features @ weight + bias
        left = b @ (xm @ feats.T)  # B^p S for p = q + 1
        for q in range(P):
            out[gi, q::P] = ((left * (xm @ right[q])) @ group).sum(axis=0)
            if q + 1 < P:
                left = b @ left
    return out


def _walk_statistics(graphs: list, cfg: KernelConfig) -> np.ndarray:
    """len(graphs) x P x (d+1) x (d+1): K[g, q] = X~^T B^(q+1) X~ with
    X~ = [X 1], each graph's side of the factored kernel.  It depends on
    the graph alone, so it is ``cached`` per (graph, diffusion config, P)."""
    key = ("walks", cfg.diffusion, cfg.max_walk)
    return np.stack([cached(g, key, lambda: _graph_walks(g, cfg)) for g in graphs])


def _graph_walks(g: Graph, cfg: KernelConfig) -> np.ndarray:
    """One graph's P x (d+1) x (d+1) walk statistics, in arrays of its own
    size."""
    b = diffuse(g, cfg.diffusion)
    xt = np.ones((g.n, g.feature_dim + 1))
    xt[:, :-1] = g.features
    walk, walks = xt, []
    for _ in range(cfg.max_walk):
        walk = b @ walk
        walks.append(walk)
    return np.matmul(xt.T, np.stack(walks))


def _encoder_backward(grad: np.ndarray, parents: list, graphs: list, cfg: KernelConfig):
    """Reverse of ``_encoder_forward``: accumulates d(output) . grad into
    each of ``parents`` (``SwagParams.parameters()`` order) that requires
    grad.

    Differentiates the factored kernel: with W~ = [W; b^T], the output for
    graph g, hidden graph h and walk length p is <K_p(g), W~ G_hp W~^T>,
    where K_p(g) = X~^T B^p X~ (``_walk_statistics``) and
    G_hp = F_h^T B'_h^p F_h.  The graphs enter only through
    Kbar_hp = sum_g grad[g, h, p] K_p(g), so nothing here is sized by the
    batch's node count.
    """
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    n_graphs = grad.shape[0]
    weight, bias, raw, features = parents
    wt = np.vstack([weight.data, bias.data])
    d1 = wt.shape[0]
    feats = features.data
    mask = 1.0 - np.eye(m)
    adj, bf = _hidden_walks(raw.data, feats, P)  # bf[q] = B'^(q+1) F
    feats_t = feats.transpose(0, 2, 1)

    stats = _walk_statistics(graphs, cfg).transpose(1, 0, 2, 3).reshape(P, n_graphs, d1 * d1)
    kbar = np.matmul(grad.reshape(n_graphs, M, P).T, stats).reshape(P, M, d1, d1)
    q_ = wt.T @ kbar @ wt
    # G_hp is symmetric, so d<K, W~ G W~^T>/dW~ = (K + K^T) W~ G
    d_wt = ((kbar + kbar.transpose(0, 1, 3, 2)) @ wt @ (feats_t @ bf)).sum(axis=(0, 1))
    d_feats = (bf @ (q_ + q_.transpose(0, 1, 3, 2))).sum(axis=0)
    # d/dB' of sum_p <F Q_p F^T, B'^p>, back through the chain B'^p F = B' B'^(p-1) F
    acc = feats @ q_[P - 1]
    d_adj = np.zeros_like(adj)
    for q in range(P - 1, 0, -1):
        d_adj += acc @ bf[q - 1].transpose(0, 2, 1)
        acc = adj @ acc + feats @ q_[q - 1]
    d_adj += acc @ feats_t
    # off the diagonal adj is the sigmoid itself, whose derivative is adj (1 - adj)
    half = d_adj * mask * adj * (1.0 - adj) * 0.5
    d_raw = half + half.transpose(0, 2, 1)

    for leaf, d in zip(parents, (d_wt[:-1], d_wt[-1], d_raw, d_feats)):
        if leaf.requires_grad:
            ad._accumulate(leaf, d)


def encode_batch(graphs: list, params: SwagParams, cfg: KernelConfig) -> Tensor:
    """Encode a batch into a len(graphs) x M*P tensor (rows in input order).

    A single autodiff node over ``params.parameters()`` with a hand-written
    vector-Jacobian product; the values are those of ``encode_numpy``.
    The node keeps only the list of graphs, nothing sized by their node
    count: the backward pass differentiates the kernel through each graph's
    walk statistics X~^T B^p X~, computed on the graph's first backward and
    cached with it after that.
    """
    parents = params.parameters()
    out = _encoder_forward(graphs, params, cfg)
    graphs = list(graphs)  # the backward reads them again

    def vjp(g):
        _encoder_backward(g, parents, graphs, cfg)

    return ad._node(out, parents, vjp, "encode_batch")


def encode_numpy(graphs: list, params: SwagParams, cfg: KernelConfig) -> np.ndarray:
    """Gradient-free encoding used for evaluation and frozen-encoder runs:
    the ``encode_batch`` forward without a tape node."""
    return _encoder_forward(graphs, params, cfg)


def swag_encode(g: Graph, params: SwagParams, cfg: KernelConfig) -> Tensor:
    """Encode one graph as the M*P vector of smoothed kernel values."""
    return ad.reduce_sum(encode_batch([g], params, cfg), axis=0)
