"""Self-supervised objectives over graph encodings.

Both losses consume an SSLBatch of anchor/positive encoding pairs.  The
contrastive objective scores an anchor's own positive against the other
positives in the batch; the non-contrastive one pulls each anchor toward
a stop-gradient copy of its positive in cosine space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .kernel import KernelConfig, SwagParams, encode_batch, state_array


class TwoLayerMLP:
    """ReLU MLP with one hidden layer, recorded on the tape as one node;
    ``forward`` evaluates it off the tape."""

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        if w1.data.shape[1] != b1.data.shape[0] or w2.data.shape[1] != b2.data.shape[0]:
            raise ContractError("TwoLayerMLP: bias lengths must match layer widths")
        if w1.data.shape[1] != w2.data.shape[0]:
            raise ContractError("TwoLayerMLP: layer widths do not chain")
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, d_in: int, d_hidden: int, d_out: int,
             rng: np.random.Generator) -> "TwoLayerMLP":
        def layer(fan_in, fan_out):
            bound = 1.0 / np.sqrt(fan_in)
            w = ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            b = ad.parameter(rng.uniform(-bound, bound, size=fan_out))
            return w, b

        w1, b1 = layer(d_in, d_hidden)
        w2, b2 = layer(d_hidden, d_out)
        return cls(w1, b1, w2, b2)

    def forward(self, x: np.ndarray):
        """The hidden activations relu(x W1 + b1) and the outputs (that
        times W2, plus b2) of a matrix ``x``, in plain numpy: evaluation
        reads the outputs without recording a tape node."""
        w1, b1, w2, b2 = (p.data for p in self.parameters())
        if x.ndim != 2 or x.shape[1] != w1.shape[0]:
            raise ContractError(f"{type(self).__name__}: input of shape {x.shape} does not "
                                f"fit a first layer of shape {w1.shape}")
        hidden = np.maximum(x @ w1 + b1, 0.0)
        return hidden, hidden @ w2 + b2

    def __call__(self, x: Tensor) -> Tensor:
        """relu(x W1 + b1) W2 + b2 from ``forward``, recorded as one tape node.

        Values and gradients are those of the chain ``matmul``, bias
        ``add``, ``relu``, ``matmul``, bias ``add``, bit for bit: the VJP
        forms the same products of C-ordered arrays (another layout would
        change BLAS's rounding).  Only the sign of some zeros in its
        intermediates differs, and that cannot reach a parent, whose
        gradient is always built as zeros + (a sum of products).
        """
        x = ad._as_tensor(x)
        w1, b1, w2, b2 = self.parameters()
        hidden, out = self.forward(x.data)

        def vjp(g):
            # g is out.grad, already zeros + (the consumer's gradient)
            if w2.requires_grad:
                ad._accumulate(w2, hidden.T @ g)
            if b2.requires_grad:
                ad._accumulate(b2, np.add.reduce(g, axis=0))
            # hidden > 0 exactly where x W1 + b1 > 0
            g = np.where(hidden > 0, g @ w2.data.T, 0.0)
            if x.requires_grad:
                ad._accumulate(x, g @ w1.data.T)
            if w1.requires_grad:
                ad._accumulate(w1, x.data.T @ g)
            if b1.requires_grad:
                ad._accumulate(b1, np.add.reduce(g, axis=0))

        return ad._node(out, (x, w1, b1, w2, b2), vjp, "mlp")

    def parameters(self) -> list:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "TwoLayerMLP":
        return type(self)(*[ad.parameter(p.data.copy()) for p in self.parameters()])

    def to_state(self) -> dict:
        return {"w1": self.w1.data.copy(), "b1": self.b1.data.copy(),
                "w2": self.w2.data.copy(), "b2": self.b2.data.copy()}

    @classmethod
    def from_state(cls, state: dict) -> "TwoLayerMLP":
        """Inverse of ``to_state``; ``kernel.state_array`` checks each entry."""
        w1 = state_array(state, "w1", (None, None))
        width = w1.shape[1]
        w2 = state_array(state, "w2", (width, None))
        return cls(*map(ad.parameter, (w1, state_array(state, "b1", (width,)), w2,
                                       state_array(state, "b2", w2.shape[1:]))))


class ProjectionHead(TwoLayerMLP):
    """Head in front of either objective, encoding -> 32 -> 32: the
    contrastive similarity or the non-contrastive cosine."""

    WIDTH = 32

    @classmethod
    def for_encoder(cls, input_dim: int, rng: np.random.Generator) -> "ProjectionHead":
        return cls.init(input_dim, cls.WIDTH, cls.WIDTH, rng)


@dataclass
class SSLBatch:
    """Paired anchor/positive encodings; row i of each side belongs together."""

    anchors: Tensor
    positives: Tensor

    def __post_init__(self):
        if self.anchors.data.shape != self.positives.data.shape:
            raise ContractError("SSLBatch: anchors and positives must pair up")

    @property
    def size(self) -> int:
        return self.anchors.data.shape[0]


def make_ssl_batch(graphs: list, augmenter, params: SwagParams, cfg: KernelConfig,
                   epoch: int, indices=None) -> SSLBatch:
    """Encode anchors and freshly drawn positives with shared parameters.

    ``indices`` are the dataset positions of the graphs and key the
    augmenter's per-graph random streams; they default to batch order.
    """
    if indices is None:
        indices = range(len(graphs))
    positives = [augmenter.augment(g, int(i), epoch) for g, i in zip(graphs, indices)]
    return SSLBatch(encode_batch(graphs, params, cfg),
                    encode_batch(positives, params, cfg))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes, one per row of
    ``logits``, recorded as one tape node.

    Values and gradients are those of the composed chain (``log_softmax``,
    a one-hot ``multiply``, a row ``sum``, ``mean`` and ``scale`` by -1),
    bit for bit; the log-softmax values come from the helper behind
    ``ad.log_softmax``.  Nothing is summed twice: the loss is the pairwise
    sum ``np.mean`` takes, and the VJP subtracts ``probs`` times the one
    nonzero it writes per row, which is that row's sum.  A label that is
    not an integer in [0, C), for C columns of ``logits``, is a
    ContractError naming its row, and so are logits with no rows.
    """
    logits = ad._as_tensor(logits)
    if logits.data.ndim != 2:
        raise ContractError(f"softmax_cross_entropy: expected a matrix of logits, "
                            f"got shape {logits.data.shape}")
    count = logits.data.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise ContractError(f"softmax_cross_entropy: {count} rows of logits but labels of "
                            f"shape {labels.shape}")
    if count == 0:
        raise ContractError("softmax_cross_entropy: no rows of logits")
    classes = logits.data.shape[1]
    # read as unsigned, a negative label is huge: one reduction checks both bounds
    if labels.dtype.kind not in "iu" or labels.view(f"u{labels.itemsize}").max() >= classes:
        values = labels.tolist()
        row = next((r for r, x in enumerate(values)
                    if type(x) is not int or not 0 <= x < classes), 0)
        raise ContractError(f"softmax_cross_entropy: row {row}: label {values[row]!r} is not "
                            f"an integer class index in [0, {classes})")
    rows = np.arange(count)
    logp, probs = ad._log_softmax_rows(logits.data)

    def vjp(g):
        # the gradient the chain hands log_softmax: value = -g / count on each
        # true class, +0.0 elsewhere; then log_softmax's own VJP, whose row
        # sum of that gradient is value itself
        value = (g * -1.0) / count
        d = np.zeros(logits.data.shape)
        d[rows, labels] = value
        ad._accumulate(logits, d - probs * value)

    # np.mean's pairwise sum and division, without its wrapper
    return ad._node((np.add.reduce(logp[rows, labels]) / count) * -1.0, (logits,), vjp,
                    "softmax_cross_entropy")


def infonce_from_similarities(sim: Tensor) -> Tensor:
    """Mean negative log-probability of each diagonal entry under a row
    softmax."""
    return softmax_cross_entropy(sim, np.arange(sim.data.shape[0]))


def infonce_loss(batch: SSLBatch, head) -> Tensor:
    """Contrastive loss with in-batch negatives.

    Each anchor's positive must win a softmax over the positives of the
    whole batch; the other rows act as the negatives.
    """
    if batch.size < 2:
        raise ContractError("infonce_loss: need at least 2 pairs for in-batch negatives")
    z_a = head(batch.anchors)
    z_p = head(batch.positives)
    return infonce_from_similarities(z_a @ z_p.transpose())


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Per-row cosine similarity; rows with zero norm contribute 0."""
    return ad.reduce_sum(ad.l2_normalize(a) * ad.l2_normalize(b), axis=1)


def noncontrastive_loss(batch: SSLBatch, head) -> Tensor:
    """Negative mean cosine between each head output and the stop-gradient
    head output of its positive; gradient flows through the anchor side only."""
    if batch.size < 1:
        raise ContractError("noncontrastive_loss: empty batch")
    z_a = head(batch.anchors)
    z_p = ad.stop_gradient(head(batch.positives))
    return ad.scale(cosine_rows(z_a, z_p).mean(), -1.0)


# objective name -> (loss, smallest batch it accepts); each lambda looks its
# loss up when called, so a wrapper bound over the module's name sees the call
OBJECTIVES = {"infonce": (lambda batch, head: infonce_loss(batch, head), 2),
              "simsiam": (lambda batch, head: noncontrastive_loss(batch, head), 1)}
