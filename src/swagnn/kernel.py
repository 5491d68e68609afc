"""Hidden-graph kernel encoder.

A graph is compared against M small trainable hidden graphs through a
random-walk kernel smoothed by graph diffusion.  The kernel value for
walk length p is trace(B^p S B'^p S^T) with S the cross inner-product
matrix between mapped input features and hidden features; the encoding
concatenates these scalars for p = 1..P over all hidden graphs.

With X~ = [X 1] and W~ = [W; b^T] (the feature map as one matrix) the
kernel factors as <X~^T B^p X~, W~ F^T B'^p F W~^T>.  The forward does not
use this (its rounding is pinned to the node-level products), but the
backward does: it differentiates through each graph's (d+1) x (d+1) walk
statistics, so ``encode_batch`` keeps nothing sized by the node count
between the forward and the backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .graphs import DiffusionConfig, Graph, diffuse


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
    """A trainable weighted graph on a fixed small node set."""

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

    @property
    def num_nodes(self) -> int:
        return self.raw_weights.data.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.hidden_features.data.shape[1]

    @classmethod
    def init(cls, m: int, d_h: int, rng: np.random.Generator) -> "HiddenGraph":
        raw = ad.parameter(rng.standard_normal((m, m)))
        feats = ad.parameter(rng.standard_normal((m, d_h)) / np.sqrt(d_h))
        return cls(raw, feats)


def hidden_adjacency(h: HiddenGraph) -> Tensor:
    """Effective adjacency: sigmoid of the symmetrized raw weights with a
    zero diagonal.  Symmetric with entries in (0,1) by construction."""
    sym = ad.scale(h.raw_weights + h.raw_weights.transpose(), 0.5)
    mask = ad.constant(1.0 - np.eye(h.num_nodes))
    return sym.sigmoid() * mask


class FeatureMap:
    """Trainable affine map aligning input features with hidden features."""

    def __init__(self, weight: Tensor, bias: Tensor):
        if weight.data.shape[1] != bias.data.shape[0]:
            raise ContractError("FeatureMap: bias length must match output dim")
        self.weight = weight
        self.bias = bias

    @property
    def input_dim(self) -> int:
        return self.weight.data.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weight.data.shape[1]

    @classmethod
    def init(cls, d: int, d_h: int, rng: np.random.Generator) -> "FeatureMap":
        bound = 1.0 / np.sqrt(d)
        weight = ad.parameter(rng.uniform(-bound, bound, size=(d, d_h)))
        bias = ad.parameter(rng.uniform(-bound, bound, size=d_h))
        return cls(weight, bias)

    def check_input(self, features: np.ndarray):
        if features.shape[1] != self.input_dim:
            raise ContractError(f"FeatureMap: expected {self.input_dim} input features, "
                                f"got {features.shape[1]}")

    def __call__(self, features: np.ndarray) -> Tensor:
        self.check_input(features)
        return ad.constant(features) @ self.weight + self.bias


class SwagParams:
    """All trainable encoder state: M hidden graphs plus the feature map."""

    def __init__(self, hidden_graphs: list, feature_map: FeatureMap):
        if not hidden_graphs:
            raise ContractError("SwagParams: at least one hidden graph required")
        m = hidden_graphs[0].num_nodes
        d_h = hidden_graphs[0].feature_dim
        for h in hidden_graphs:
            if h.num_nodes != m or h.feature_dim != d_h:
                raise ContractError("SwagParams: hidden graphs must share shapes")
        if feature_map.output_dim != d_h:
            raise ContractError("SwagParams: feature map output dim must match hidden features")
        self.hidden_graphs = hidden_graphs
        self.feature_map = feature_map

    @classmethod
    def init(cls, cfg: KernelConfig, input_dim: int, rng: np.random.Generator) -> "SwagParams":
        graphs = [HiddenGraph.init(cfg.hidden_nodes, cfg.hidden_dim, rng)
                  for _ in range(cfg.num_hidden)]
        return cls(graphs, FeatureMap.init(input_dim, cfg.hidden_dim, rng))

    def parameters(self) -> list:
        out = [self.feature_map.weight, self.feature_map.bias]
        for h in self.hidden_graphs:
            out.extend([h.raw_weights, h.hidden_features])
        return out

    def copy(self) -> "SwagParams":
        graphs = [HiddenGraph(ad.parameter(h.raw_weights.data.copy()),
                              ad.parameter(h.hidden_features.data.copy()))
                  for h in self.hidden_graphs]
        fm = FeatureMap(ad.parameter(self.feature_map.weight.data.copy()),
                        ad.parameter(self.feature_map.bias.data.copy()))
        return SwagParams(graphs, fm)

    def to_state(self) -> dict:
        state = {"fm_weight": self.feature_map.weight.data.copy(),
                 "fm_bias": self.feature_map.bias.data.copy()}
        for i, h in enumerate(self.hidden_graphs):
            state[f"hg{i}_raw"] = h.raw_weights.data.copy()
            state[f"hg{i}_features"] = h.hidden_features.data.copy()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SwagParams":
        graphs = []
        i = 0
        while f"hg{i}_raw" in state:
            graphs.append(HiddenGraph(ad.parameter(np.asarray(state[f"hg{i}_raw"])),
                                      ad.parameter(np.asarray(state[f"hg{i}_features"]))))
            i += 1
        fm = FeatureMap(ad.parameter(np.asarray(state["fm_weight"])),
                        ad.parameter(np.asarray(state["fm_bias"])))
        return cls(graphs, fm)


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
    if xm.data.shape[1] != h.feature_dim:
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


def _hidden_weights(raws: list) -> np.ndarray:
    """M x m x m: the sigmoid of each hidden graph's symmetrised raw
    weights, the hidden adjacency before its diagonal is masked."""
    return np.stack([ad._sigmoid((r.data + r.data.T) * 0.5) for r in raws])


def _encoder_forward(graphs: list, params: SwagParams, cfg: KernelConfig) -> np.ndarray:
    """The one numpy evaluation behind every encoder entry point.

    All hidden graphs are merged into one block-diagonal system so the
    hidden-side products happen once per call: with S = Xm F^T over the
    concatenated hidden features F, the kernel for hidden graph h at walk
    length p is the block-h column sum of (B^p S) * (Xm F^T Bhid^p).  The
    column block sums go through a 0/1 ``group`` matmul, whose rounding
    the encodings are pinned to.  Graphs run one at a time in buffers
    sized by the largest graph.  Returns the len(graphs) x M*P encodings,
    ordered hidden-graph-major, walk-length-minor.
    """
    if not graphs:
        raise ContractError("encode_batch: empty batch")
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    fm = params.feature_map
    weight, bias = fm.weight.data, fm.bias.data
    feats = np.concatenate([h.hidden_features.data for h in params.hidden_graphs], axis=0)
    mask = 1.0 - np.eye(m)
    bhid = np.zeros((M * m, M * m))
    for i, sig in enumerate(_hidden_weights([h.raw_weights for h in params.hidden_graphs])):
        bhid[i * m:(i + 1) * m, i * m:(i + 1) * m] = sig * mask
    # right-hand factors F^T Bhid^p, shared by every graph in the call
    right = [feats.T @ bhid]
    for _ in range(P - 1):
        right.append(right[-1] @ bhid)
    group = np.zeros((M * m, M))
    for i in range(M):
        group[i * m:(i + 1) * m, i] = 1.0

    # lefts[q] and rights[q]: for walk length p = q + 1, the factors B^p S
    # and Xm F^T Bhid^p of the current graph
    rows = max(g.n for g in graphs)
    lefts = [np.empty((rows, M * m)) for _ in range(P)]
    rights = [np.empty((rows, M * m)) for _ in range(P)]
    out = np.empty((len(graphs), M * P))
    for gi, g in enumerate(graphs):
        fm.check_input(g.features)
        b = diffuse(g, cfg.diffusion)
        xm = g.features @ weight + bias
        left = np.matmul(b, xm @ feats.T, out=lefts[0][:g.n])
        for q in range(P):
            r = np.matmul(xm, right[q], out=rights[q][:g.n])
            out[gi, q::P] = ((left * r) @ group).sum(axis=0)
            if q + 1 < P:
                left = np.matmul(b, left, out=lefts[q + 1][:g.n])
    return out


def _walk_statistics(graphs: list, cfg: KernelConfig) -> np.ndarray:
    """len(graphs) x P x (d+1) x (d+1): K[g, q] = X~^T B^(q+1) X~ with
    X~ = [X 1], each graph's side of the factored kernel."""
    P, d1 = cfg.max_walk, graphs[0].feature_dim + 1
    stats = np.empty((len(graphs), P, d1, d1))
    rows = max(g.n for g in graphs)
    xt_buf, walks_buf = np.ones((rows, d1)), np.empty((P, rows, d1))
    for gi, g in enumerate(graphs):
        b = diffuse(g, cfg.diffusion)
        xt, walks = xt_buf[:g.n], walks_buf[:, :g.n]
        xt[:, :-1] = g.features
        walk = xt
        for q in range(P):
            walk = np.matmul(b, walk, out=walks[q])
        np.matmul(xt.T, walks, out=stats[gi])
    return stats


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
    weight, bias = parents[:2]
    raws, features = parents[2::2], parents[3::2]
    wt = np.vstack([weight.data, bias.data])
    d1 = wt.shape[0]
    feats = np.stack([f.data for f in features])
    mask = 1.0 - np.eye(m)
    sig = _hidden_weights(raws)
    adj = sig * mask
    bf = [adj @ feats]  # bf[q] = B'^(q+1) F, per hidden graph
    for _ in range(P - 1):
        bf.append(adj @ bf[-1])
    bf = np.stack(bf)
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
    half = d_adj * mask * sig * (1.0 - sig) * 0.5
    d_raw = half + half.transpose(0, 2, 1)

    if weight.requires_grad:
        ad._accumulate(weight, d_wt[:-1])
    if bias.requires_grad:
        ad._accumulate(bias, d_wt[-1])
    for raw, f, d_r, d_f in zip(raws, features, d_raw, d_feats):
        if raw.requires_grad:
            ad._accumulate(raw, d_r)
        if f.requires_grad:
            ad._accumulate(f, d_f)


def encode_batch(graphs: list, params: SwagParams, cfg: KernelConfig) -> Tensor:
    """Encode a batch into a len(graphs) x M*P tensor (rows in input order).

    A single autodiff node over ``params.parameters()`` with a hand-written
    vector-Jacobian product; the values are those of ``encode_numpy``.
    The node keeps only the list of graphs, nothing sized by their node
    count: the backward pass recomputes each graph's walk statistics
    X~^T B^p X~ and differentiates the kernel through them.
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
