"""Property tests of the TU text round trip, of the TU input boundary and
of the fold splitter."""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swagnn.cli import main  # noqa: E402
from swagnn.errors import SwagError  # noqa: E402
from swagnn.graphs import (Dataset, Graph, load_tu_dataset,  # noqa: E402
                           stratified_folds, write_tu_dataset)
from test_tu_loader import assert_same_outcome  # noqa: E402

FEATURES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, max_graphs=5, max_nodes=6):
    dim = draw(st.integers(1, 3))
    num_classes = draw(st.integers(1, 3))
    graphs = []
    for _ in range(draw(st.integers(1, max_graphs))):
        n = draw(st.integers(1, max_nodes))
        bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))
        a = np.zeros((n, n))
        a[np.triu_indices(n, k=1)] = bits
        feats = draw(st.lists(FEATURES, min_size=n * dim, max_size=n * dim))
        graphs.append(Graph(n, a + a.T, np.array(feats).reshape(n, dim),
                            draw(st.integers(0, num_classes - 1))))
    return Dataset(graphs, num_classes, dim, "PROP")


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_tu_write_load_round_trip(ds):
    with tempfile.TemporaryDirectory() as directory:
        write_tu_dataset(ds.graphs, directory, ds.name)
        loaded = load_tu_dataset(directory, ds.name)
    # labels come back as their rank among the labels that occur
    used = sorted({g.label for g in ds.graphs})
    assert loaded.num_classes == len(used)
    assert loaded.feature_dim == ds.feature_dim
    assert len(loaded) == len(ds)
    for want, got in zip(ds.graphs, loaded.graphs):
        assert got.n == want.n
        np.testing.assert_array_equal(got.adjacency, want.adjacency)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.label == used.index(want.label)


# a valid set: a triangle, a path and a 1-node graph, with node labels and
# two attribute columns
VALID_TU = {
    "A": ["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1", "4, 5", "5, 4", "5, 6", "6, 5"],
    "graph_indicator": ["1", "1", "1", "2", "2", "2", "3"],
    "graph_labels": ["1", "-1", "1"],
    "node_labels": ["0", "1", "0", "2", "1", "0", "2"],
    "node_attributes": ["0.5, 1.0", "0.1, 0.2", "0.0, -0.0", "2.0, 3.0", "4.0, 5.0",
                        "1e-300, 7.0", "-1.5, 0.25"],
}
TOKENS = st.sampled_from(["0", "-1", "4", "8", "99", "1e9", "1.5", "x", "", "1, 2", "3, 3",
                          "7, 1", "0, 1", "2,", "0.5, inf", "nan, 0.0", "-inf, 1.0"])
MUTATIONS = st.tuples(st.sampled_from(sorted(VALID_TU)),
                      st.sampled_from(["drop", "duplicate", "replace"]),
                      st.integers(0, 20),
                      TOKENS | st.text("0123456789-+,.eE ", max_size=6))


def _mutated_tu(directory, mutations):
    files = {key: list(lines) for key, lines in VALID_TU.items()}
    for key, kind, at, token in mutations:
        lines = files[key]
        at %= max(len(lines), 1)
        if kind == "drop" and lines:
            del lines[at]
        elif kind == "duplicate" and lines:
            lines.insert(at, lines[at])
        elif kind == "replace":
            lines[at:at + 1] = [token]
    for key, lines in files.items():
        with open(os.path.join(directory, f"FUZZ_{key}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@settings(max_examples=50, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3),
       st.sampled_from(["edge-drop", "lga", "identity"]))
def test_mutated_tu_input_ends_in_a_dataset_or_a_swag_error(mutations, augmenter):
    with tempfile.TemporaryDirectory() as directory:
        _mutated_tu(directory, mutations)
        try:
            assert isinstance(load_tu_dataset(directory, "FUZZ"), Dataset)
        except SwagError:
            pass
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["augment", "--dataset", "FUZZ", "--data-dir", directory,
                         "--augmenter", augmenter, "--out", os.path.join(directory, "out")])
    assert code in (0, 1)
    assert "Traceback" not in stderr.getvalue()
    if code == 1:
        assert stderr.getvalue().startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_tu_input_loads_as_the_oracle_does(mutations):
    with tempfile.TemporaryDirectory() as directory:
        _mutated_tu(directory, mutations)
        assert_same_outcome(directory, "FUZZ")


@st.composite
def labelled_sets(draw):
    k = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(k, 4 * k), min_size=1, max_size=3))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    labels = labels[np.random.default_rng(draw(st.integers(0, 2**16))).permutation(len(labels))]
    graphs = [Graph(1, np.zeros((1, 1)), np.zeros((1, 1)), int(c)) for c in labels]
    return Dataset(graphs, len(sizes), 1, "FOLDS"), k


@settings(max_examples=60, deadline=None)
@given(labelled_sets(), st.integers(0, 2**16))
def test_stratified_folds_partition_invariants(case, seed):
    ds, k = case
    labels, everyone = ds.labels(), set(range(len(ds)))
    folds = stratified_folds(ds, k, seed)
    assert len(folds) == k
    # the test sets partition the dataset
    tests = [i for split in folds for i in split.test_idx]
    assert sorted(tests) == sorted(everyone)
    for split in folds:
        parts = (split.train_idx, split.val_idx, split.test_idx)
        for part in parts:
            assert list(part) == sorted(part)
        assert sum(len(p) for p in parts) == len(ds)
        assert set().union(*parts) == everyone
        for c in range(ds.num_classes):
            members = int(np.sum(labels == c))
            in_test = int(np.sum(labels[split.test_idx] == c))
            in_val = int(np.sum(labels[split.val_idx] == c))
            # stratified: each class's test share is a floor or ceiling of 1/k
            assert members // k <= in_test <= math.ceil(members / k)
            # every class keeps a training graph, and validation holds about
            # a tenth of the rest whenever the rest can spare one
            rest = members - in_test
            assert int(np.sum(labels[split.train_idx] == c)) >= 1
            assert in_val == (min(max(1, math.ceil(0.1 * rest)), rest - 1) if rest >= 2 else 0)
    assert folds == stratified_folds(ds, k, seed)
