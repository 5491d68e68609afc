"""``load_tu_dataset`` against a per-line reference loader.

``oracle_load_tu_dataset`` parses one line at a time, with one ``int`` or
``float`` call per token and one adjacency write per edge line.  The
library loader must give the same ``Dataset`` bit for bit, or raise the
same exception class with the same message, on every input.
"""

import math
import os
import pathlib
import sys

import numpy as np
import pytest

from swagnn.errors import FormatError, LoadError, SwagError
from swagnn.graphs import Dataset, Graph, load_tu_dataset

from test_graphs import write_fixture

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


# ---------------------------------------------------------------------------
# the reference loader
# ---------------------------------------------------------------------------

def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(lineno, text) for lineno, line in enumerate(fh, start=1)
                    if (text := line.strip())]
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def _read_ints(path, graph_ids=False):
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


def oracle_load_tu_dataset(directory, name):
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
            continue
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
    graphs = [Graph(adjacencies[i].shape[0], adjacencies[i], features[i], labels[i])
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


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _outcome(load, directory, name):
    try:
        return load(directory, name)
    except SwagError as exc:
        return exc


def assert_same_outcome(directory, name):
    """The library loader and the oracle give equal datasets, or raise the
    same exception class with the same message.  Returns the outcome."""
    want = _outcome(oracle_load_tu_dataset, directory, name)
    got = _outcome(load_tu_dataset, directory, name)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (want, got)
        return got
    assert isinstance(got, Dataset), got
    assert (got.name, got.num_classes, got.feature_dim, len(got)) == \
        (want.name, want.num_classes, want.feature_dim, len(want))
    for g, h in zip(got.graphs, want.graphs):
        assert g.n == h.n and type(g.n) is type(h.n)
        assert g.label == h.label and type(g.label) is type(h.label)
        for a, b in ((g.adjacency, h.adjacency), (g.features, h.features)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    return got


# ---------------------------------------------------------------------------
# the inputs
# ---------------------------------------------------------------------------

def _write_attributes(directory, name, seed, dim=3):
    """One row of ``dim`` random floats per node, printed with ``repr``."""
    path = os.path.join(directory, f"{name}_graph_indicator.txt")
    with open(path, encoding="utf-8") as fh:
        nodes = sum(1 for line in fh if line.strip())
    values = np.random.default_rng(seed).normal(size=(nodes, dim)) * 10.0 ** np.arange(dim)
    with open(os.path.join(directory, f"{name}_node_attributes.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("".join(", ".join(map(repr, row)) + "\n" for row in values.tolist()))


@pytest.fixture(scope="module")
def bench_inputs():
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    return inputs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("data", ["MUTAG", "SBM"])
def test_bench_sets_load_as_the_oracle_does(tmp_path, bench_inputs, data, seed):
    raw = bench_inputs.mutag_like(seed) if data == "MUTAG" else bench_inputs.sbm_set(seed)[0]
    bench_inputs.write_tu(raw, str(tmp_path), data)
    assert isinstance(assert_same_outcome(str(tmp_path), data), Dataset)
    _write_attributes(str(tmp_path), data, seed)
    assert isinstance(assert_same_outcome(str(tmp_path), data), Dataset)
    os.remove(tmp_path / f"{data}_node_labels.txt")
    assert isinstance(assert_same_outcome(str(tmp_path), data), Dataset)


@pytest.mark.parametrize("filename, line, text", [
    ("MUTAG_A.txt", 5000, "7, x"),
    ("MUTAG_A.txt", 5000, "7, 8, 9"),
    ("MUTAG_A.txt", 5000, "7, 100000000000000000000"),
    ("MUTAG_A.txt", 2500, "100000000000000000000, 1"),
    ("MUTAG_A.txt", 5000, "0, 1"),
    ("MUTAG_A.txt", 5000, "1, 3000"),
    ("MUTAG_A.txt", 1023, "1"),
    ("MUTAG_A.txt", 1025, " "),
    ("MUTAG_node_attributes.txt", 3000, "nan, 1.0, 2.0"),
    ("MUTAG_node_attributes.txt", 3000, "nan, 1.0"),
    ("MUTAG_node_attributes.txt", 2049, "1.0, 2.0"),
    ("MUTAG_node_attributes.txt", 3000, "1.0, x, 2.0"),
])
def test_a_fault_deep_in_a_long_file_is_found_as_the_oracle_finds_it(
        tmp_path, bench_inputs, filename, line, text):
    bench_inputs.write_tu(bench_inputs.mutag_like(0), str(tmp_path), "MUTAG")
    _write_attributes(str(tmp_path), "MUTAG", 0)
    path = tmp_path / filename
    lines = path.read_text().split("\n")
    lines[line - 1] = text
    path.write_text("\n".join(lines))
    assert_same_outcome(str(tmp_path), "MUTAG")


FIXTURES = [
    # the valid fixtures of test_graphs.py
    {},
    {"with_node_labels": True},
    {"with_attrs": True},
    {"with_node_labels": True, "with_attrs": True},
    # the malformed and edge-case files of test_graphs.py
    {"TOY_A.txt": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n7\n"},
    {"TOY_A.txt": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n3, 4\n"},
    {"TOY_A.txt": "1, 2\n2, x\n"},
    {"TOY_A.txt": "1, 2\n\n2.5, 1\n"},
    {"TOY_graph_indicator.txt": "1\n1\none\n2\n2\n"},
    {"TOY_graph_labels.txt": "1\n-1.0\n"},
    {"TOY_graph_indicator.txt": "1\n2\n\n1\n2\n2\n", "TOY_A.txt": "1, 2\n2, 1\n"},
    {"TOY_graph_indicator.txt": "1\n2\n\n1\n2\n2\n", "TOY_A.txt": "1, 3\n3, 1\n"},
    {"TOY_graph_indicator.txt": "1\n1\n1\n3\n3\n"},
    {"TOY_graph_indicator.txt": "0\n0\n0\n1\n1\n"},
    {"TOY_graph_indicator.txt": "2\n2\n2\n3\n3\n"},
    {"TOY_graph_indicator.txt": "1\n1\n\n1\n2\n4\n"},
    {"with_node_labels": True, "TOY_node_labels.txt": "0\n1\n0\nC\n1\n"},
    *({"with_attrs": True,
       "TOY_node_attributes.txt": f"0.5, 1.0\n0.1, {token}\n0.0, 0.0\n2.0, 3.0\n4.0, 5.0\n"}
      for token in ("nan", "inf", "-inf", "abc")),
    {"with_attrs": True, "TOY_A.txt": "1, 2\n2, 1\n  \n2, 3\n3, 2\n\n1, 3\n3, 1\n4, 5\n\t\n5, 4\n",
     "TOY_graph_labels.txt": "1\n \n-1\n"},
    {"TOY_A.txt": "1, 2\n2, 1\n  \n2, 3\n3, 2\n\n1, 3\n3, 1\n4, 5\n\t\n5, 4\n \n9, 1\n"},
    {"TOY_graph_labels.txt": b"1\n\xff\xfe\n"},
    {"with_attrs": True, "TOY_node_attributes.txt": "0.5, 1.0\n0.1\n0.0, 0.0\n2.0, 3.0\n4.0, 5.0\n"},
    # the pinned behaviours of test_graphs.py
    {"TOY_A.txt": "1, 2\n2, 2\n2, 3\n1, 3\n1, 2\n4, 5\n"},
    {"TOY_graph_labels.txt": "100000000000000000000\n-7\n"},
    {"with_node_labels": True, "TOY_node_labels.txt": "0\n100000000000000000000\n0\n-5\n1\n"},
    {"TOY_A.txt": "1, 2\n2, 1\n2, 3\n3, 2\n1, 100000000000000000000\n"},
    # empty, missing and whitespace-only files
    {"TOY_graph_indicator.txt": "\n \n"},
    {"TOY_A.txt": ""},
    {"TOY_graph_labels.txt": "1\n"},
    {"with_node_labels": True, "TOY_node_labels.txt": "0\n1\n"},
    {"with_attrs": True, "TOY_node_attributes.txt": "1.0\n2.0\n"},
    {"TOY_A.txt": "1,2\n 2 ,1\n+2, 3\n3, 2\n1_0, 3\n"},
    {"TOY_A.txt": "1, 2, 3\n"},
    {"with_node_labels": True, "TOY_node_labels.txt": "0\n\u0661\n0\n2\n1_0\n"},
    {"with_attrs": True,
     "TOY_node_attributes.txt": "0.5, 1_0.0\n0.1, \u0662.5\n0, -0\n+2, 3e0\n4.0, 5.0\n"},
    {"TOY_A.txt": "0, 1\n"},
    {"TOY_A.txt": "-1, 2\n"},
]


@pytest.mark.parametrize("case", FIXTURES, ids=range(len(FIXTURES)))
def test_fixture_files_load_as_the_oracle_does(tmp_path, case):
    flags = {key: case[key] for key in ("with_node_labels", "with_attrs") if key in case}
    d = write_fixture(tmp_path, **flags)
    for filename, text in case.items():
        if filename.endswith(".txt"):
            path = tmp_path / "TOY" / filename
            path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    assert_same_outcome(d, "TOY")
