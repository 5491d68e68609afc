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
from .kernel import KernelConfig, SwagParams, encode_batch


class TwoLayerMLP:
    """ReLU MLP with one hidden layer."""

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

    @property
    def input_dim(self) -> int:
        return self.w1.data.shape[0]

    @property
    def output_dim(self) -> int:
        return self.w2.data.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.w1 + self.b1).relu() @ self.w2 + self.b2

    def parameters(self) -> list:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "TwoLayerMLP":
        return type(self)(*[ad.parameter(p.data.copy()) for p in self.parameters()])

    def to_state(self) -> dict:
        return {"w1": self.w1.data.copy(), "b1": self.b1.data.copy(),
                "w2": self.w2.data.copy(), "b2": self.b2.data.copy()}

    @classmethod
    def from_state(cls, state: dict) -> "TwoLayerMLP":
        return cls(*[ad.parameter(np.asarray(state[k])) for k in ("w1", "b1", "w2", "b2")])


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

def infonce_from_similarities(sim: Tensor) -> Tensor:
    """Mean negative log-probability of each diagonal entry under a row
    softmax."""
    eye = ad.constant(np.eye(sim.data.shape[0]))
    diag = ad.reduce_sum(ad.log_softmax(sim) * eye, axis=1)
    return ad.scale(diag.mean(), -1.0)


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
