"""Graph data model, TU-format text I/O, diffusion and fold splitting.

Graphs are stored densely: datasets at desk scale fit comfortably in
memory and the encoder consumes dense matrices anyway.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, FormatError, LoadError


@dataclass(eq=False)
class Graph:
    """An undirected simple graph with per-node features.

    ``adjacency`` is a symmetric 0/1 matrix with zero diagonal and
    ``features`` has one row per node.  ``label`` is a 0-based class
    index, or None for unlabeled graphs.
    """

    n: int
    adjacency: np.ndarray
    features: np.ndarray
    label: Optional[int] = None

    def validate(self) -> "Graph":
        if self.n <= 0:
            raise ContractError("Graph: node count must be positive")
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ContractError(f"Graph: adjacency shape {a.shape} != ({self.n}, {self.n})")
        if not np.array_equal(a, a.T):
            raise ContractError("Graph: adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ContractError("Graph: adjacency diagonal must be zero")
        if self.features.ndim != 2 or self.features.shape[0] != self.n:
            raise ContractError("Graph: features must have one row per node")
        return self

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def copy(self) -> "Graph":
        return Graph(self.n, self.adjacency.copy(), self.features.copy(), self.label)

    def permuted(self, perm: np.ndarray) -> "Graph":
        """Relabel nodes: node i of the result is node perm[i] of self."""
        p = np.asarray(perm)
        return Graph(self.n, self.adjacency[np.ix_(p, p)], self.features[p], self.label)


@dataclass
class Dataset:
    graphs: list
    num_classes: int
    feature_dim: int
    name: str

    def __post_init__(self):
        for g in self.graphs:
            if g.feature_dim != self.feature_dim:
                raise ContractError(f"Dataset {self.name}: inconsistent feature dims")
            if g.label is not None and not (0 <= g.label < self.num_classes):
                raise ContractError(f"Dataset {self.name}: label {g.label} out of range")

    def __len__(self):
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class DiffusionConfig:
    """Personalized-PageRank style diffusion: coefficients alpha*(1-alpha)^j
    over transition-matrix powers, truncated at ``depth``."""

    alpha: float = 0.15
    depth: int = 3

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"DiffusionConfig: alpha must be in (0,1), got {self.alpha}")
        if self.depth < 0:
            raise ConfigError(f"DiffusionConfig: depth must be non-negative, got {self.depth}")

    def coefficients(self) -> np.ndarray:
        j = np.arange(self.depth + 1)
        return self.alpha * (1.0 - self.alpha) ** j


@dataclass
class FoldSplit:
    train_idx: list
    val_idx: list
    test_idx: list


# ---------------------------------------------------------------------------
# featurization and diffusion
# ---------------------------------------------------------------------------

def degree_features(g: Graph) -> np.ndarray:
    """Node degree as a single real-valued feature column."""
    return g.adjacency.sum(axis=1, keepdims=True).astype(np.float64)


def transition_matrix(g: Graph) -> np.ndarray:
    """Symmetric normalization D^{-1/2} A D^{-1/2}.

    Isolated nodes get all-zero rows and columns: a degree of zero maps to
    a zero scaling factor rather than a division error, so the node simply
    does not diffuse.
    """
    deg = g.adjacency.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return g.adjacency * np.outer(inv_sqrt, inv_sqrt)


_GRAPH_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cached(g: Graph, key, compute):
    """``compute()`` once per (graph, key): later calls return the stored
    array, shared between callers and read-only (a write raises ValueError).
    Entries are values that depend on the graph alone (its adjacency and
    features, which must not change afterwards) and die with the graph."""
    per_graph = _GRAPH_CACHE.get(g)
    if per_graph is None:
        per_graph = _GRAPH_CACHE[g] = {}
    value = per_graph.get(key)
    if value is None:
        value = per_graph[key] = compute()
        value.flags.writeable = False
    return value


def diffuse(g: Graph, cfg: DiffusionConfig) -> np.ndarray:
    """Truncated diffusion sum over transition-matrix powers.

    The result is ``cached`` per (graph, config), shared between callers
    and read-only.
    """
    return cached(g, cfg, lambda: _diffusion_sum(g, cfg))


def _diffusion_sum(g: Graph, cfg: DiffusionConfig) -> np.ndarray:
    t = transition_matrix(g)
    coeffs = cfg.coefficients()
    power = np.eye(g.n)
    out = coeffs[0] * power
    for j in range(1, cfg.depth + 1):
        power = power @ t
        out += coeffs[j] * power
    return out


# ---------------------------------------------------------------------------
# TU text format
# ---------------------------------------------------------------------------

def _read_lines(path: str) -> list:
    """(1-based line number, stripped text) for every non-blank line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(lineno, text) for lineno, line in enumerate(fh, start=1)
                    if (text := line.strip())]
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def _read_ints(path: str, graph_ids: bool = False) -> list:
    """One integer per non-blank line.  With ``graph_ids`` (the graph
    indicator) the values must number the graphs 1..N in order: the first
    is 1 and each next one repeats the one before or adds one, or a
    FormatError names the line."""
    values = []
    for lineno, line in _read_lines(path):
        try:
            value = int(line)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: expected an integer, got {line!r}") from None
        if graph_ids and value not in ((values[-1], values[-1] + 1) if values else (1,)):
            if values and value < values[-1]:
                raise FormatError(f"{path}:{lineno}: graph id decreases from {values[-1]} to "
                                  f"{value}; each graph's nodes must be listed together, "
                                  "in graph order")
            where = f"after {values[-1]}" if values else "on the first line"
            raise FormatError(f"{path}:{lineno}: graph id {value} {where}; graphs are "
                              "numbered 1, 2, ... with none skipped")
        values.append(value)
    return values


def load_tu_dataset(directory: str, name: str) -> Dataset:
    """Load a dataset in the TU plain-text layout.

    Mandatory files: ``<name>_A.txt`` (comma-separated 1-based edge list),
    ``<name>_graph_indicator.txt`` (graph id per node: the graphs are
    numbered 1..N and each graph's nodes are listed together, in graph
    order) and
    ``<name>_graph_labels.txt`` (one integer per graph).  Optional
    ``<name>_node_labels.txt`` entries are one-hot encoded and optional
    ``<name>_node_attributes.txt`` rows are taken verbatim; when both
    exist they are concatenated with the one-hot block first.  Without
    either, node degree is used as the single feature.  A token that does
    not parse, or a non-finite attribute, raises ``FormatError`` naming
    the file and line.
    """
    paths = {key: os.path.join(directory, f"{name}_{key}.txt")
             for key in ("A", "graph_indicator", "graph_labels",
                         "node_labels", "node_attributes")}
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(paths[key]):
            raise LoadError(f"missing mandatory file {paths[key]}")

    indicator = _read_ints(paths["graph_indicator"], graph_ids=True)
    if not indicator:
        raise LoadError(f"{paths['graph_indicator']} contains no node entries")
    num_nodes = len(indicator)

    # global 1-based node id -> (graph position, local 0-based node index)
    node_graph = np.asarray(indicator, dtype=np.int64) - 1
    sizes = np.bincount(node_graph)
    node_local = np.arange(num_nodes) - (np.cumsum(sizes) - sizes)[node_graph]

    adjacencies = [np.zeros((n, n)) for n in sizes]
    for lineno, line in _read_lines(paths["A"]):
        try:
            u, v = line.split(",")
            u, v = int(u), int(v)
        except ValueError:
            raise FormatError(f"{paths['A']}:{lineno}: expected 'u, v', got {line!r}") from None
        if not (1 <= u <= num_nodes and 1 <= v <= num_nodes):
            raise FormatError(f"{paths['A']}:{lineno}: node id out of range")
        if node_graph[u - 1] != node_graph[v - 1]:
            raise FormatError(f"{paths['A']}:{lineno}: edge endpoint outside its graph")
        if u == v:
            continue  # self-loops are dropped
        a = adjacencies[node_graph[u - 1]]
        a[node_local[u - 1], node_local[v - 1]] = 1.0
        a[node_local[v - 1], node_local[u - 1]] = 1.0

    raw_labels = _read_ints(paths["graph_labels"])
    if len(raw_labels) != len(sizes):
        raise FormatError(f"{paths['graph_labels']}: {len(raw_labels)} labels "
                          f"for {len(sizes)} graphs")
    classes = sorted(set(raw_labels))
    remap = {c: i for i, c in enumerate(classes)}
    labels = [remap[c] for c in raw_labels]

    features = _node_features(paths, indicator, adjacencies, node_graph, node_local)

    graphs = [Graph(adjacencies[i].shape[0], adjacencies[i], features[i],
                    labels[i]).validate()
              for i in range(len(sizes))]
    return Dataset(graphs, len(classes), graphs[0].feature_dim, name)


def _node_features(paths, indicator, adjacencies, node_graph, node_local):
    blocks = []
    if os.path.isfile(paths["node_labels"]):
        values = _read_ints(paths["node_labels"])
        if len(values) != len(indicator):
            raise FormatError(f"{paths['node_labels']}: one entry per node required")
        categories = sorted(set(values))
        cat_pos = {c: i for i, c in enumerate(categories)}
        onehot = np.zeros((len(values), len(categories)))
        for node, value in enumerate(values):
            onehot[node, cat_pos[value]] = 1.0
        blocks.append(onehot)
    if os.path.isfile(paths["node_attributes"]):
        path = paths["node_attributes"]
        rows = []
        for lineno, line in _read_lines(path):
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                raise FormatError(f"{path}:{lineno}: expected float values, got {line!r}") from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}:{lineno}: non-finite value in {line!r}")
            if rows and len(row) != len(rows[0]):
                raise FormatError(f"{path}:{lineno}: expected {len(rows[0])} values, got {line!r}")
            rows.append(row)
        if len(rows) != len(indicator):
            raise FormatError(f"{paths['node_attributes']}: one row per node required")
        blocks.append(np.array(rows))

    if blocks:
        full = np.concatenate(blocks, axis=1)
        per_graph = [np.zeros((a.shape[0], full.shape[1])) for a in adjacencies]
        for node in range(len(indicator)):
            per_graph[node_graph[node]][node_local[node]] = full[node]
        return per_graph
    return [a.sum(axis=1, keepdims=True) for a in adjacencies]


def write_tu_dataset(ds: Dataset, directory: str, name: str = None):
    """Write a dataset back out in TU text format (canonical edge order).

    Node features are emitted as ``_node_attributes.txt`` so that any
    feature matrix (including one-hot blocks) round-trips through
    ``load_tu_dataset``.  Each value is the ``repr`` of a float64, so
    integer features print as ``1.0`` and ``-0.0`` keeps its sign.
    """
    name = name or ds.name
    os.makedirs(directory, exist_ok=True)
    offsets = np.cumsum([1] + [g.n for g in ds.graphs])
    # argwhere lists entries row-major, which is the canonical order
    edges = np.concatenate([np.argwhere(g.adjacency) + offset
                            for g, offset in zip(ds.graphs, offsets)] or [np.empty((0, 2), int)])
    rows = np.concatenate([np.asarray(g.features, dtype=np.float64) for g in ds.graphs]
                          or [np.empty((0, 0))])
    texts = {"A": "%d, %d\n" * len(edges) % tuple(edges.ravel().tolist()),
             "graph_indicator": "".join(f"{gi}\n" * g.n for gi, g in enumerate(ds.graphs, start=1)),
             "graph_labels": "".join(f"{0 if g.label is None else g.label}\n" for g in ds.graphs),
             "node_attributes": "".join(", ".join(map(repr, row)) + "\n" for row in rows.tolist())}
    for suffix, text in texts.items():
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# cross-validation splits
# ---------------------------------------------------------------------------

def stratified_folds(ds: Dataset, k: int, seed: int) -> list:
    """K stratified splits whose test sets partition the dataset.

    Within each fold, roughly 10% of the non-test portion (rounded up per
    class, at least one graph per class where the class has graphs to
    spare) is held out for validation.
    """
    if k < 2:
        raise ConfigError(f"stratified_folds: k must be >= 2, got {k}")
    labels = ds.labels()
    if any(g.label is None for g in ds.graphs):
        raise ConfigError("stratified_folds: every graph needs a label")

    rng = np.random.default_rng(seed)
    by_class = {}
    for c in range(ds.num_classes):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise ConfigError(f"stratified_folds: class {c} has {len(idx)} members, needs >= {k}")
        by_class[c] = rng.permutation(idx)

    chunks = {c: np.array_split(by_class[c], k) for c in by_class}
    folds = []
    for f in range(k):
        test, val, train = [], [], []
        for c in by_class:
            test.extend(chunks[c][f].tolist())
            # starting at the next chunk spreads validation over the chunks,
            # so no graph is held out of training in every fold
            rest = np.concatenate([chunks[c][(f + j) % k] for j in range(1, k)])
            n_val = max(1, math.ceil(0.1 * len(rest)))
            n_val = min(n_val, len(rest) - 1) if len(rest) >= 2 else 0
            val.extend(rest[:n_val].tolist())
            train.extend(rest[n_val:].tolist())
        folds.append(FoldSplit(sorted(train), sorted(val), sorted(test)))
    return folds
