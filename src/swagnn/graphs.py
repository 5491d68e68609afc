"""Graph data model, TU-format text I/O, diffusion and fold splitting.

Graphs are stored densely: datasets at desk scale fit comfortably in
memory and the encoder consumes dense matrices anyway.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, FormatError, LoadError


@dataclass(eq=False)
class Graph:
    """An undirected simple graph with per-node features.

    ``adjacency`` is a symmetric 0/1 matrix with zero diagonal and
    ``features`` has one row per node.  ``label`` is a 0-based class
    index, or None for unlabeled graphs.  ``Dataset`` checks this where a
    graph enters the library.
    """

    n: int
    adjacency: np.ndarray
    features: np.ndarray
    label: Optional[int] = None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

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
    """Graphs of one feature width.  Construction is the one contract check
    of the graphs: each has n >= 1 nodes, an n x n symmetric adjacency with
    a zero diagonal, n x ``feature_dim`` finite features and a label in
    0..``num_classes``-1 or None.  A graph that breaks it raises
    ContractError naming the dataset and the graph's position."""

    graphs: list
    num_classes: int
    feature_dim: int
    name: str

    def __post_init__(self):
        by_size = {}  # positions by node count: graphs of one size are checked as one stack
        for i, g in enumerate(self.graphs):
            a, x = g.adjacency, g.features
            if g.n < 1 or a.shape != (g.n, g.n) or x.shape != (g.n, self.feature_dim):
                self._reject(i, f"has {g.n} nodes, adjacency shape {a.shape} and features shape "
                                f"{x.shape}, expected n >= 1, ({g.n}, {g.n}) and "
                                f"({g.n}, {self.feature_dim})")
            if g.label is not None and not (0 <= g.label < self.num_classes):
                self._reject(i, f"has label {g.label}, out of range")
            by_size.setdefault(g.n, []).append(i)
        failed = []  # (position, what is wrong): each check's first failing graph per stack
        for positions in by_size.values():
            a = np.stack([self.graphs[i].adjacency for i in positions])
            for bad, what in (((a != a.transpose(0, 2, 1)).reshape(len(a), -1).any(axis=1),
                               "has an asymmetric adjacency"),
                              (a.diagonal(axis1=1, axis2=2).any(axis=1),
                               "has a nonzero adjacency diagonal")):
                if bad.any():
                    failed.append((positions[int(bad.argmax())], what))
        # features are checked as one matrix; only a failure looks for its graph
        if self.graphs and not np.isfinite(np.concatenate([g.features for g in self.graphs])).all():
            failed.append((next(i for i, g in enumerate(self.graphs)
                                if not np.isfinite(g.features).all()), "has a non-finite feature"))
        if failed:
            self._reject(*min(failed))

    def _reject(self, position: int, what: str):
        raise ContractError(f"Dataset {self.name}: graph {position} {what}")

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


def cached(g: Graph, key, compute):
    """``compute()`` once per (graph, key): later calls return the stored
    value, shared between callers.  The value is an array or a tuple, and
    every array in it is made read-only (a write raises ValueError).
    Entries are values that depend on the graph alone (its adjacency and
    features, which must not change afterwards); they are kept on the
    graph and die with it."""
    value = g._derived.get(key)
    if value is None:
        value = g._derived[key] = compute()
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
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

def _read_entries(path: str) -> tuple:
    """The stripped non-blank lines of a text file, read once, and every
    stripped line (to number the lines when a check fails)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(map(str.strip, fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    return list(filter(None, lines)), lines


def _fail(path: str, lines: list, entry: int, message: str):
    """Raise a FormatError naming the line of the ``entry``-th non-blank line."""
    lineno = [i for i, text in enumerate(lines, start=1) if text][entry]
    raise FormatError(f"{path}:{lineno}: {message}")


def _converted(kind, tokens) -> list:
    """``kind`` (``int`` or ``float``) of each token, stopping at the first
    that raises ValueError: a shorter result ends just before that token
    (``list.extend`` keeps what it appended before the exception)."""
    values = []
    try:
        values.extend(map(kind, tokens))
    except ValueError:
        pass
    return values


# entries converted at a time: few Python strings and numbers live at once,
# so loading peaks at about the memory the per-line loader needed
_CHUNK = 1024


def _parsed_rows(entries: list, kind, width: int) -> tuple:
    """Each entry split at its commas into ``width`` values of ``kind``
    (``int`` or ``float``): an int64 or float64 array of the rows of the
    leading entries that parse, the number of those rows, and whether the
    entry after them holds an integer beyond int64.  Otherwise that entry
    has another width or a token that does not parse."""
    if set(map(str.count, entries, repeat(","))) <= {width - 1}:
        shaped = len(entries)
    else:
        shaped = next(k for k, text in enumerate(entries) if text.count(",") != width - 1)
    dtype = np.int64 if kind is int else np.float64
    blocks, parsed, beyond = [np.empty(0, dtype)], 0, False
    for start in range(0, shaped, _CHUNK):
        stop = min(start + _CHUNK, shaped)
        values = _converted(kind, ",".join(entries[start:stop]).split(","))
        rows = len(values) // width
        try:
            blocks.append(np.array(values[:rows * width], dtype=dtype))
        except OverflowError:
            rows = next(k for k in range(rows)
                        if not all(-2**63 <= x < 2**63 for x in values[k * width:(k + 1) * width]))
            blocks.append(np.array(values[:rows * width], dtype=dtype))
            beyond = True
        parsed += rows
        if beyond or start + rows < stop:
            break
    return np.concatenate(blocks).reshape(parsed, width), parsed, beyond


def _first_bad_graph_id(ids: list) -> int:
    """The index of the first graph id that neither repeats the one before
    nor adds one to it (the first must be 1), or ``len(ids)``."""
    if ids and 1 <= min(ids) and max(ids) <= len(ids):  # only then int64 holds them
        steps = np.diff(np.array(ids), prepend=0)
        bad = np.flatnonzero((steps != 0) & (steps != 1))
        return int(bad[0]) if bad.size else len(ids)
    return next((k for k, value in enumerate(ids)
                 if value not in ((ids[k - 1], ids[k - 1] + 1) if k else (1,))), len(ids))


def _read_ints(path: str, graph_ids: bool = False) -> list:
    """One integer per non-blank line.  With ``graph_ids`` (the graph
    indicator) the values must number the graphs 1..N in order: the first
    is 1 and each next one repeats the one before or adds one, or a
    FormatError names the line."""
    entries, lines = _read_entries(path)
    values = _converted(int, entries)
    if graph_ids and (k := _first_bad_graph_id(values)) < len(values):
        if k and values[k] < values[k - 1]:
            _fail(path, lines, k, f"graph id decreases from {values[k - 1]} to {values[k]}; "
                  "each graph's nodes must be listed together, in graph order")
        where = f"after {values[k - 1]}" if k else "on the first line"
        _fail(path, lines, k, f"graph id {values[k]} {where}; graphs are numbered 1, 2, ... "
              "with none skipped")
    if len(values) < len(entries):
        _fail(path, lines, len(values), f"expected an integer, got {entries[len(values)]!r}")
    return values


def _read_edges(path: str, node_graph: np.ndarray) -> np.ndarray:
    """The edge list as 0-based node pairs, one row per non-blank line.
    The first line that does not parse as ``u, v``, names a node outside
    1..N or joins two graphs is a FormatError."""
    entries, lines = _read_entries(path)
    ends, parsed, beyond = _parsed_rows(entries, int, 2)
    failures = []
    if parsed < len(entries):
        failures.append((parsed, "node id out of range" if beyond
                         else f"expected 'u, v', got {entries[parsed]!r}"))
    outside = np.flatnonzero(((ends < 1) | (ends > len(node_graph))).any(axis=1))
    if outside.size:
        # the lines before the first node id out of range are still checked
        failures.append((int(outside[0]), "node id out of range"))
        ends = ends[:outside[0]]
    ends -= 1
    across = np.flatnonzero(node_graph[ends[:, 0]] != node_graph[ends[:, 1]])
    if across.size:
        failures.append((int(across[0]), "edge endpoint outside its graph"))
    if failures:
        _fail(path, lines, *min(failures))
    return ends


def _read_attributes(path: str) -> np.ndarray:
    """One row of comma-separated floats per non-blank line, all of the
    first row's width and finite, or a FormatError names the line."""
    entries, lines = _read_entries(path)
    width = entries[0].count(",") + 1 if entries else 1
    rows, parsed, _ = _parsed_rows(entries, float, width)
    failures = []
    if parsed < len(entries):
        text = entries[parsed]
        row = _converted(float, text.split(","))
        if len(row) < text.count(",") + 1:
            failures.append((parsed, f"expected float values, got {text!r}"))
        elif not all(map(math.isfinite, row)):
            failures.append((parsed, f"non-finite value in {text!r}"))
        else:
            failures.append((parsed, f"expected {width} values, got {text!r}"))
    nonfinite = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if nonfinite.size:
        k = int(nonfinite[0])
        failures.append((k, f"non-finite value in {entries[k]!r}"))
    if failures:
        _fail(path, lines, *min(failures))
    return rows


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
    either, node degree is used as the single feature.  Self-loop lines
    are dropped, and an edge listed once, in one direction, or several
    times is one undirected edge.  Graph labels are remapped to 0..C-1 in
    sorted order.

    Each file is read once and parsed as a whole, with Python's ``int``
    and ``float`` on every token and the checks run over arrays, so the
    cost is linear in the size of the files.  A token that does not
    parse, a node id out of range, an edge across two graphs or a
    non-finite attribute raises ``FormatError`` naming the file and its
    first failing line; the line is numbered only then.
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

    # global 0-based node id -> (graph position, local 0-based node index)
    node_graph = np.array(indicator, dtype=np.int64) - 1
    sizes = np.bincount(node_graph)
    starts = np.cumsum(sizes) - sizes
    node_local = np.arange(num_nodes) - starts[node_graph]

    # every adjacency is a view into one buffer, filled by one scatter;
    # node i's row starts at rows[i], and its column is node_local[i]
    u, v = _read_edges(paths["A"], node_graph).T
    squares = sizes * sizes
    rows = (np.cumsum(squares) - squares)[node_graph] + node_local * sizes[node_graph]
    buffer = np.zeros(int(squares.sum()))
    buffer[np.concatenate([rows[u] + node_local[v], rows[v] + node_local[u]])] = 1.0
    buffer[rows + node_local] = 0.0  # self-loops are dropped
    adjacencies = [square.reshape(n, n) for square, n in
                   zip(np.split(buffer, np.cumsum(squares)[:-1]), sizes.tolist())]

    raw_labels = _read_ints(paths["graph_labels"])
    if len(raw_labels) != len(sizes):
        raise FormatError(f"{paths['graph_labels']}: {len(raw_labels)} labels "
                          f"for {len(sizes)} graphs")
    classes = sorted(set(raw_labels))
    remap = {c: i for i, c in enumerate(classes)}
    labels = list(map(remap.__getitem__, raw_labels))

    features = _node_features(paths, num_nodes, adjacencies, starts)

    graphs = [Graph(a.shape[0], a, x, label)
              for a, x, label in zip(adjacencies, features, labels)]
    return Dataset(graphs, len(classes), graphs[0].feature_dim, name)


def _node_features(paths, num_nodes, adjacencies, starts):
    blocks = []
    if os.path.isfile(paths["node_labels"]):
        values = _read_ints(paths["node_labels"])
        if len(values) != num_nodes:
            raise FormatError(f"{paths['node_labels']}: one entry per node required")
        categories = sorted(set(values))
        cat_pos = {c: i for i, c in enumerate(categories)}
        onehot = np.zeros((num_nodes, len(categories)))
        onehot[np.arange(num_nodes), list(map(cat_pos.__getitem__, values))] = 1.0
        blocks.append(onehot)
    if os.path.isfile(paths["node_attributes"]):
        rows = _read_attributes(paths["node_attributes"])
        if len(rows) != num_nodes:
            raise FormatError(f"{paths['node_attributes']}: one row per node required")
        blocks.append(rows)

    if blocks:
        # each graph's nodes are listed together, so its rows are one slice
        return np.split(np.concatenate(blocks, axis=1), starts[1:])
    return [a.sum(axis=1, keepdims=True) for a in adjacencies]


def make_output_dir(path: str):
    """Create the directory ``path`` and any missing parents.  A path that
    cannot be a directory (a file, or a path below one) raises ConfigError
    naming it, not a bare OSError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def write_tu_dataset(graphs: list, directory: str, name: str):
    """Write graphs out as the TU dataset ``name`` (canonical edge order).

    Node features are emitted as ``_node_attributes.txt`` so that any
    feature matrix (including one-hot blocks) round-trips through
    ``load_tu_dataset``.  Each value is the ``repr`` of a float64, so
    integer features print as ``1.0`` and ``-0.0`` keeps its sign.  The
    graphs are written as given: a ``Dataset`` checks them when it is built.
    """
    make_output_dir(directory)
    offsets = np.cumsum([1] + [g.n for g in graphs])
    # argwhere lists entries row-major, which is the canonical order
    edges = np.concatenate([np.argwhere(g.adjacency) + offset
                            for g, offset in zip(graphs, offsets)] or [np.empty((0, 2), int)])
    rows = np.concatenate([np.asarray(g.features, dtype=np.float64) for g in graphs]
                          or [np.empty((0, 0))])
    texts = {"A": "%d, %d\n" * len(edges) % tuple(edges.ravel().tolist()),
             "graph_indicator": "".join(f"{gi}\n" * g.n for gi, g in enumerate(graphs, start=1)),
             "graph_labels": "".join(f"{0 if g.label is None else g.label}\n" for g in graphs),
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
    if any(g.label is None for g in ds.graphs):
        raise ConfigError("stratified_folds: every graph needs a label")
    labels = ds.labels()

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
