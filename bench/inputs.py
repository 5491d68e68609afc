"""Seeded input sets for the benchmark, written as TU text files.

Two sets are produced from one seed:

* ``MUTAG`` -- a MUTAG-shaped molecule-like set: 188 graphs of 10-28
  nodes, 7 one-hot node labels, 125 graphs of class 1 and 63 of class 0.
  Class 1 graphs carry two or three fused 6-rings, class 0 graphs none or
  one, so the classes differ in structure.
* ``SBM`` -- stochastic-block-model graphs of 60-120 nodes with 2 or 3
  equal blocks and 3 random one-hot node labels; the graph label is the
  block count minus 2.  Intra-block
  density 0.9 against 0.05 between blocks keeps every block eigenvalue
  above the default LGA threshold 2.02*sqrt(n), so the spectral estimate
  keeps the block structure.

Node counts, class sizes and block counts are fixed lists that the seed
only shuffles: the work per round is then the same for every seed, and
the seed changes only which edges and labels are drawn.
"""

from __future__ import annotations

import os

import numpy as np

MUTAG_GRAPHS = 188
MUTAG_POSITIVE = 125
MUTAG_NODE_LABELS = 7
SBM_SIZES = ((60, 2), (72, 3), (84, 2), (96, 3), (108, 2), (120, 3))
SBM_INTRA, SBM_INTER = 0.9, 0.05
SBM_NODE_LABELS = 3

# label 0 is carbon; the others stand in for N, O, F, I, Cl, Br
_BRANCH_LABEL_P = np.array([0.55, 0.15, 0.2, 0.025, 0.025, 0.025, 0.025])


def mutag_sizes() -> np.ndarray:
    """Node counts 10..28 with MUTAG's mean of about 18 nodes."""
    frac = np.arange(MUTAG_GRAPHS) / (MUTAG_GRAPHS - 1)
    return 10 + np.floor(18.999 * frac ** 1.3).astype(int)


def _molecule(n: int, rings: int, rng: np.random.Generator):
    adj = np.zeros((n, n))
    labels = np.zeros(n, dtype=int)

    def bond(u, v):
        adj[u, v] = adj[v, u] = 1.0

    used = 0
    if rings:
        # first ring, then each further ring fused onto the previous one
        # through a shared edge (naphthalene/anthracene style)
        ring = list(range(6))
        for i in range(6):
            bond(ring[i], ring[(i + 1) % 6])
        used = 6
        for _ in range(rings - 1):
            a, b = ring[2], ring[3]
            new = list(range(used, used + 4))
            for u, v in zip([b] + new, new + [a]):
                bond(u, v)
            ring = [b, new[0], new[1], new[2], new[3], a]
            used += 4
        labels[:used] = np.where(rng.random(used) < 0.9, 0, 1)
    else:
        used = 1
    for v in range(used, n):
        degree = adj[:v, :v].sum(axis=1)
        free = np.flatnonzero(degree < 3)
        bond(v, int(rng.choice(free)))
        labels[v] = rng.choice(MUTAG_NODE_LABELS, p=_BRANCH_LABEL_P)
    return adj, labels


def mutag_like(seed: int) -> list:
    """(adjacency, node labels, graph label) triples, order shuffled."""
    rng = np.random.default_rng([seed, 1])
    sizes = rng.permutation(mutag_sizes())
    classes = rng.permutation(np.r_[np.ones(MUTAG_POSITIVE, dtype=int),
                                    np.zeros(MUTAG_GRAPHS - MUTAG_POSITIVE, dtype=int)])
    out = []
    for i, (n, c) in enumerate(zip(sizes, classes)):
        rings = int(rng.integers(2, 4)) if c else int(rng.integers(0, 2))
        rings = min(rings, (n - 2) // 4)  # leave room for at least two branch atoms
        adj, labels = _molecule(int(n), rings, rng)
        if i < MUTAG_NODE_LABELS:
            labels[-1] = i  # every label occurs, so the one-hot width is always 7
        out.append((adj, labels, int(c)))
    return out


def sbm_probability(n: int, blocks: int) -> np.ndarray:
    member = np.arange(n) * blocks // n
    same = member[:, None] == member[None, :]
    p = np.where(same, SBM_INTRA, SBM_INTER)
    np.fill_diagonal(p, 0.0)
    return p


def sbm_set(seed: int) -> list:
    """(adjacency, node labels, graph label) triples plus the generating
    matrices.  Node labels are drawn uniformly from SBM_NODE_LABELS
    categories, independent of the blocks."""
    rng = np.random.default_rng([seed, 2])
    out, probs = [], []
    for i, k in enumerate(rng.permutation(len(SBM_SIZES))):
        n, blocks = SBM_SIZES[k]
        p = sbm_probability(n, blocks)
        upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
        labels = rng.integers(0, SBM_NODE_LABELS, n)
        labels[:SBM_NODE_LABELS] = np.arange(SBM_NODE_LABELS)  # every label occurs
        out.append((upper + upper.T, labels, blocks - 2))
        probs.append(p)
    return out, probs


def write_tu(graphs: list, directory: str, name: str):
    """TU text layout: 1-based edge list, graph indicator, graph labels and,
    when given, integer node labels."""
    os.makedirs(directory, exist_ok=True)
    edges, indicator, glabels, nlabels = [], [], [], []
    offset = 0
    for gi, (adj, labels, c) in enumerate(graphs, start=1):
        rows, cols = np.nonzero(adj)
        edges.extend(f"{offset + u + 1}, {offset + v + 1}" for u, v in zip(rows, cols))
        indicator.extend([str(gi)] * adj.shape[0])
        glabels.append(str(c))
        if labels is not None:
            nlabels.extend(str(x) for x in labels)
        offset += adj.shape[0]
    files = {"A": edges, "graph_indicator": indicator, "graph_labels": glabels}
    if nlabels:
        files["node_labels"] = nlabels
    for suffix, lines in files.items():
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
