"""Hidden-graph kernel encoder.

A graph is compared against M small trainable hidden graphs through a
random-walk kernel smoothed by graph diffusion.  The kernel value for
walk length p is trace(B^p S B'^p S^T) with S the cross inner-product
matrix between mapped input features and hidden features; the encoding
concatenates these scalars for p = 1..P over all hidden graphs.
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


def _encoder_forward(graphs: list, params: SwagParams, cfg: KernelConfig, keep: bool):
    """The one numpy evaluation behind every encoder entry point.

    All hidden graphs are merged into one block-diagonal system so the
    hidden-side products happen once per call: with S = Xm F^T over the
    concatenated hidden features F, the kernel for hidden graph h at walk
    length p is the block-h column sum of (B^p S) * (Xm F^T Bhid^p).  The
    column block sums go through a 0/1 ``group`` matmul, whose rounding
    the encodings are pinned to.  Returns the len(graphs) x M*P encodings,
    ordered hidden-graph-major, walk-length-minor, and, when ``keep`` is
    set, the intermediates the backward pass needs.
    """
    if not graphs:
        raise ContractError("encode_batch: empty batch")
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    fm = params.feature_map
    weight, bias = fm.weight.data, fm.bias.data
    feats = np.concatenate([h.hidden_features.data for h in params.hidden_graphs], axis=0)
    mask = 1.0 - np.eye(m)
    sig = []
    bhid = np.zeros((M * m, M * m))
    for i, h in enumerate(params.hidden_graphs):
        raw = h.raw_weights.data
        sig.append(ad._sigmoid((raw + raw.T) * 0.5))
        bhid[i * m:(i + 1) * m, i * m:(i + 1) * m] = sig[-1] * mask
    # right-hand factors F^T Bhid^p, shared by every graph in the call
    right = [feats.T @ bhid]
    for _ in range(P - 1):
        right.append(right[-1] @ bhid)
    group = np.zeros((M * m, M))
    for i in range(M):
        group[i * m:(i + 1) * m, i] = 1.0

    # lefts[q] and rights[q]: for walk length p = q + 1, the factors B^p S
    # and Xm F^T Bhid^p of every graph, stacked by node rows when kept for
    # the backward pass, else one graph at a time in reused buffers
    rows_needed = sum(g.n for g in graphs) if keep else max(g.n for g in graphs)
    lefts = [np.empty((rows_needed, M * m)) for _ in range(P)]
    rights = [np.empty((rows_needed, M * m)) for _ in range(P)]
    out = np.empty((len(graphs), M * P))
    bs, xs, xms = [], [], []
    lo = 0
    for gi, g in enumerate(graphs):
        fm.check_input(g.features)
        b = diffuse(g, cfg.diffusion)
        xm = g.features @ weight + bias
        rows = slice(lo, lo + g.n)
        left = np.matmul(b, xm @ feats.T, out=lefts[0][rows])
        for q in range(P):
            r = np.matmul(xm, right[q], out=rights[q][rows])
            out[gi, q::P] = ((left * r) @ group).sum(axis=0)
            if q + 1 < P:
                left = np.matmul(b, left, out=lefts[q + 1][rows])
        if keep:
            bs.append(b)
            xs.append(g.features)
            xms.append(xm)
            lo += g.n
    if not keep:
        return out, None
    return out, (feats, mask, sig, bhid, right, bs, xs, xms, lefts, rights)


def _encoder_backward(grad: np.ndarray, parents: list, cfg: KernelConfig, kept):
    """Reverse of ``_encoder_forward``: accumulates d(output) . grad into
    each of ``parents`` (``SwagParams.parameters()`` order) that requires
    grad.  Only the B^T recursion runs per graph; the products that
    contract over nodes run once over all graphs stacked.  Consumes the
    kept buffers, which are overwritten with their gradients."""
    feats, mask, sig, bhid, right, bs, xs, xms, lefts, rights = kept
    m, M, P = cfg.hidden_nodes, cfg.num_hidden, cfg.max_walk
    sizes = [b.shape[0] for b in bs]
    xs, xms = np.concatenate(xs, axis=0), np.concatenate(xms, axis=0)
    node_graph = np.repeat(np.arange(len(bs)), sizes)
    spread = np.empty_like(lefts[0])
    for q in range(P):
        # output gradient of walk length q, spread over every node row and
        # over the m columns of each hidden graph's block
        np.take(np.repeat(grad[:, q::P], m, axis=1), node_graph, axis=0, out=spread,
                mode="clip")  # "raise" would buffer the output; indices are valid
        lefts[q] *= spread
        rights[q] *= spread
    # lefts[q] now holds the gradient of the right factor and rights[q] the
    # direct part of the left factor's, whose chain through B^T runs per graph
    d_r, d_left, d_s = lefts, rights, spread
    lo = 0
    for b, n in zip(bs, sizes):
        rows = slice(lo, lo + n)
        acc = d_left[P - 1][rows]
        for q in range(P - 2, -1, -1):
            acc = b.T @ acc + d_left[q][rows]
        np.matmul(b.T, acc, out=d_s[rows])
        lo += n

    d_xm = d_s @ feats
    for q in range(P):
        d_xm += d_r[q] @ right[q].T
    d_right = [xms.T @ d_r[q] for q in range(P)]
    d_bhid = np.zeros_like(bhid)
    for q in range(P - 1, 0, -1):
        d_bhid += right[q - 1].T @ d_right[q]
        d_right[q - 1] += d_right[q] @ bhid.T
    d_bhid += feats @ d_right[0]
    d_feats = d_s.T @ xms + bhid @ d_right[0].T

    weight, bias = parents[:2]
    if weight.requires_grad:
        ad._accumulate(weight, xs.T @ d_xm)
    if bias.requires_grad:
        ad._accumulate(bias, d_xm.sum(axis=0))
    for i in range(M):
        raw, features = parents[2 + 2 * i:4 + 2 * i]
        block = slice(i * m, (i + 1) * m)
        if raw.requires_grad:
            half = d_bhid[block, block] * mask * sig[i] * (1.0 - sig[i]) * 0.5
            ad._accumulate(raw, half + half.T)
        if features.requires_grad:
            ad._accumulate(features, d_feats[block])


def encode_batch(graphs: list, params: SwagParams, cfg: KernelConfig) -> Tensor:
    """Encode a batch into a len(graphs) x M*P tensor (rows in input order).

    A single autodiff node over ``params.parameters()`` with a hand-written
    vector-Jacobian product; the values are those of ``encode_numpy``.
    """
    parents = params.parameters()
    keep = any(p.requires_grad for p in parents)
    out, kept = _encoder_forward(graphs, params, cfg, keep)

    def vjp(g):
        _encoder_backward(g, parents, cfg, kept)

    return ad._node(out, parents, vjp, "encode_batch")


def encode_numpy(graphs: list, params: SwagParams, cfg: KernelConfig) -> np.ndarray:
    """Gradient-free encoding used for evaluation and frozen-encoder runs:
    the ``encode_batch`` forward without keeping intermediates."""
    return _encoder_forward(graphs, params, cfg, keep=False)[0]


def swag_encode(g: Graph, params: SwagParams, cfg: KernelConfig) -> Tensor:
    """Encode one graph as the M*P vector of smoothed kernel values."""
    return ad.reduce_sum(encode_batch([g], params, cfg), axis=0)
