import os

import numpy as np
import pytest

from swagnn.errors import ConfigError, ContractError, FormatError, LoadError
from swagnn.graphs import (
    Dataset,
    DiffusionConfig,
    Graph,
    degree_features,
    diffuse,
    load_tu_dataset,
    stratified_folds,
    transition_matrix,
    write_tu_dataset,
)


def triangle():
    a = np.zeros((3, 3))
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        a[u, v] = a[v, u] = 1.0
    return Graph(3, a, degree_features(Graph(3, a, np.zeros((3, 1)))))


def edge_graph():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Graph(2, a, degree_features(Graph(2, a, np.zeros((2, 1)))))


def test_graph_validation():
    def dataset(bad):
        return Dataset([triangle(), edge_graph(), bad, triangle()], 1, 1, "checked")

    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    # asymmetric (loop[0, 2] only) with a self-loop: before, this trained to the end
    loop = np.zeros((4, 4))
    loop[0, 1] = loop[1, 0] = loop[2, 3] = loop[3, 2] = loop[0, 2] = loop[1, 1] = 1.0
    for bad, what in ((Graph(2, a, np.zeros((2, 1))), "has an asymmetric adjacency"),
                      (Graph(4, loop, np.ones((4, 1))), "has a nonzero adjacency diagonal"),
                      (Graph(2, np.eye(2), np.zeros((2, 1))), "has a nonzero adjacency diagonal"),
                      (Graph(3, np.zeros((2, 2)), np.zeros((2, 1))),
                       "has 3 nodes, adjacency shape (2, 2) and features shape (2, 1), "
                       "expected n >= 1, (3, 3) and (3, 1)"),
                      (Graph(2, edge_graph().adjacency, np.zeros((2, 2))),
                       "features shape (2, 2), expected n >= 1, (2, 2) and (2, 1)"),
                      (Graph(2, edge_graph().adjacency, np.array([[1.0], [np.nan]])),
                       "has a non-finite feature"),
                      (Graph(2, edge_graph().adjacency, np.array([[np.inf], [1.0]])),
                       "has a non-finite feature"),
                      (Graph(0, np.zeros((0, 0)), np.zeros((0, 1))), "has 0 nodes")):
        with pytest.raises(ContractError) as exc:
            dataset(bad)
        assert str(exc.value).startswith("Dataset checked: graph 2 ")
        assert what in str(exc.value)
    # the first failing graph is named, whichever stack of equal-size graphs it is in
    late = Graph(3, triangle().adjacency, np.array([[1.0], [2.0], [np.nan]]))
    with pytest.raises(ContractError, match="graph 1 has an asymmetric adjacency"):
        Dataset([triangle(), Graph(2, a, np.zeros((2, 1))), late], 1, 1, "checked")
    with pytest.raises(ContractError, match="graph 0 has label 1, out of range"):
        Dataset([Graph(2, edge_graph().adjacency, np.zeros((2, 1)), 1)], 1, 1, "checked")


def test_transition_matrix_edge():
    t = transition_matrix(edge_graph())
    np.testing.assert_allclose(t, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)


def test_transition_matrix_isolated_node_zero_row():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    g = Graph(3, a, np.zeros((3, 1)))
    t = transition_matrix(g)
    np.testing.assert_array_equal(t[2], np.zeros(3))
    np.testing.assert_array_equal(t[:, 2], np.zeros(3))
    assert np.all(np.isfinite(t))


def test_diffusion_coefficients_mass():
    for alpha, depth in [(0.15, 3), (0.5, 0), (0.05, 7)]:
        cfg = DiffusionConfig(alpha=alpha, depth=depth)
        total = cfg.coefficients().sum()
        expected = 1.0 - (1.0 - alpha) ** (depth + 1)
        assert abs(total - expected) < 1e-12


def test_diffuse_two_node_values():
    # alpha=0.15, depth=2 on a single edge: T is the swap matrix, so even
    # powers hit the diagonal and odd powers the off-diagonal.
    b = diffuse(edge_graph(), DiffusionConfig(alpha=0.15, depth=2))
    expected_diag = 0.15 + 0.15 * 0.85**2
    expected_off = 0.15 * 0.85
    np.testing.assert_allclose(np.diag(b), [expected_diag] * 2, atol=1e-12)
    assert abs(b[0, 1] - expected_off) < 1e-12
    assert abs(b[1, 0] - expected_off) < 1e-12


def test_diffuse_is_cached_and_shared():
    g = triangle()
    cfg = DiffusionConfig()
    first = diffuse(g, cfg)
    second = diffuse(g, cfg)
    assert first is second
    third = diffuse(g, DiffusionConfig(alpha=0.15, depth=4))
    assert third is not first


def test_diffuse_commutes_with_permutation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = (rng.random((n, n)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        g = Graph(n, a, np.zeros((n, 1)))
        perm = rng.permutation(n)
        cfg = DiffusionConfig(alpha=0.2, depth=3)
        b = diffuse(g, cfg)
        b_perm = diffuse(g.permuted(perm), cfg)
        np.testing.assert_allclose(b_perm, b[np.ix_(perm, perm)], atol=1e-12)


def test_diffusion_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        DiffusionConfig(depth=-1)


def test_degree_features():
    np.testing.assert_array_equal(degree_features(triangle()), np.full((3, 1), 2.0))


# ---------------------------------------------------------------------------
# TU format
# ---------------------------------------------------------------------------

def write_fixture(tmp_path, with_node_labels=False, with_attrs=False):
    d = tmp_path / "TOY"
    d.mkdir()
    # graph 1: triangle over nodes 1-3; graph 2: single edge over nodes 4-5
    (d / "TOY_A.txt").write_text(
        "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n")
    (d / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (d / "TOY_graph_labels.txt").write_text("1\n-1\n")
    if with_node_labels:
        (d / "TOY_node_labels.txt").write_text("0\n1\n0\n2\n1\n")
    if with_attrs:
        (d / "TOY_node_attributes.txt").write_text(
            "0.5, 1.0\n0.1, 0.2\n0.0, 0.0\n2.0, 3.0\n4.0, 5.0\n")
    return str(d)


def test_load_tu_basic(tmp_path):
    ds = load_tu_dataset(write_fixture(tmp_path), "TOY")
    assert len(ds) == 2
    assert ds.num_classes == 2
    g1, g2 = ds.graphs
    assert g1.n == 3 and g1.num_edges() == 3
    assert g2.n == 2 and g2.num_edges() == 1
    # labels remapped to 0-based in sorted order: -1 -> 0, 1 -> 1
    assert g1.label == 1 and g2.label == 0
    # no node files: degree feature
    np.testing.assert_array_equal(g1.features, np.full((3, 1), 2.0))
    np.testing.assert_array_equal(g2.features, np.full((2, 1), 1.0))


def test_load_tu_node_labels_one_hot(tmp_path):
    ds = load_tu_dataset(write_fixture(tmp_path, with_node_labels=True), "TOY")
    assert ds.feature_dim == 3
    np.testing.assert_array_equal(ds.graphs[0].features,
                                  np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=float))
    np.testing.assert_array_equal(ds.graphs[1].features,
                                  np.array([[0, 0, 1], [0, 1, 0]], dtype=float))


def test_load_tu_labels_and_attributes_concat(tmp_path):
    ds = load_tu_dataset(write_fixture(tmp_path, with_node_labels=True,
                                       with_attrs=True), "TOY")
    assert ds.feature_dim == 5
    # one-hot block first, then attributes
    np.testing.assert_array_equal(ds.graphs[0].features[0],
                                  np.array([1, 0, 0, 0.5, 1.0]))
    np.testing.assert_array_equal(ds.graphs[1].features[1],
                                  np.array([0, 1, 0, 4.0, 5.0]))


def test_load_tu_missing_file(tmp_path):
    d = write_fixture(tmp_path)
    import os
    os.remove(os.path.join(d, "TOY_graph_labels.txt"))
    with pytest.raises(LoadError) as exc:
        load_tu_dataset(d, "TOY")
    assert "graph_labels" in str(exc.value)


def test_load_tu_malformed_edge(tmp_path):
    d = write_fixture(tmp_path)
    import os
    with open(os.path.join(d, "TOY_A.txt"), "a") as fh:
        fh.write("7\n")
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert ":9:" in str(exc.value)


def test_load_tu_cross_graph_edge(tmp_path):
    d = write_fixture(tmp_path)
    import os
    with open(os.path.join(d, "TOY_A.txt"), "a") as fh:
        fh.write("3, 4\n")
    with pytest.raises(FormatError):
        load_tu_dataset(d, "TOY")


@pytest.mark.parametrize("filename, text, where", [
    ("TOY_A.txt", "1, 2\n2, x\n", ":2:"),
    ("TOY_A.txt", "1, 2\n\n2.5, 1\n", ":3:"),
    ("TOY_graph_indicator.txt", "1\n1\none\n2\n2\n", ":3:"),
    ("TOY_graph_labels.txt", "1\n-1.0\n", ":2:"),
])
def test_load_tu_non_integer_token_names_file_and_line(tmp_path, filename, text, where):
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / filename).write_text(text)
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert f"{filename}{where}" in str(exc.value)


@pytest.mark.parametrize("edges", ["1, 2\n2, 1\n", "1, 3\n3, 1\n"])
def test_load_tu_rejects_a_decreasing_graph_indicator(tmp_path, edges):
    # with edges 1-2 this used to fail on the edge file; with 1-3 it loaded
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / "TOY_graph_indicator.txt").write_text("1\n2\n\n1\n2\n2\n")
    (tmp_path / "TOY" / "TOY_A.txt").write_text(edges)
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert "TOY_graph_indicator.txt:4: graph id decreases from 2 to 1" in str(exc.value)


@pytest.mark.parametrize("indicator, message", [
    ("1\n1\n1\n3\n3\n", ":4: graph id 3 after 1"),
    ("0\n0\n0\n1\n1\n", ":1: graph id 0 on the first line"),
    ("2\n2\n2\n3\n3\n", ":1: graph id 2 on the first line"),
    ("1\n1\n\n1\n2\n4\n", ":6: graph id 4 after 2")])
def test_load_tu_rejects_graph_ids_that_do_not_run_1_to_n(tmp_path, indicator, message):
    # with two label lines, 1, 1, 3 used to load as two graphs
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / "TOY_graph_indicator.txt").write_text(indicator)
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert f"TOY_graph_indicator.txt{message}" in str(exc.value)
    assert "numbered 1, 2, ... with none skipped" in str(exc.value)


def test_load_tu_non_integer_node_label(tmp_path):
    d = write_fixture(tmp_path, with_node_labels=True)
    (tmp_path / "TOY" / "TOY_node_labels.txt").write_text("0\n1\n0\nC\n1\n")
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert "TOY_node_labels.txt:4:" in str(exc.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "abc"])
def test_load_tu_rejects_bad_attribute(tmp_path, token):
    d = write_fixture(tmp_path, with_attrs=True)
    (tmp_path / "TOY" / "TOY_node_attributes.txt").write_text(
        f"0.5, 1.0\n0.1, {token}\n0.0, 0.0\n2.0, 3.0\n4.0, 5.0\n")
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert "TOY_node_attributes.txt:2:" in str(exc.value)


def test_load_tu_skips_blank_and_whitespace_lines(tmp_path):
    d = write_fixture(tmp_path, with_attrs=True)
    plain = load_tu_dataset(d, "TOY")
    (tmp_path / "TOY" / "TOY_A.txt").write_text(
        "1, 2\n2, 1\n  \n2, 3\n3, 2\n\n1, 3\n3, 1\n4, 5\n\t\n5, 4\n")
    (tmp_path / "TOY" / "TOY_graph_labels.txt").write_text("1\n \n-1\n")
    spaced = load_tu_dataset(d, "TOY")
    for g, h in zip(plain.graphs, spaced.graphs):
        np.testing.assert_array_equal(g.adjacency, h.adjacency)
        np.testing.assert_array_equal(g.features, h.features)
        assert g.label == h.label
    with open(os.path.join(d, "TOY_A.txt"), "a") as fh:
        fh.write(" \n9, 1\n")
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert "TOY_A.txt:13:" in str(exc.value)


def test_load_tu_drops_self_loops_and_symmetrises_edges(tmp_path):
    d = write_fixture(tmp_path)
    plain = load_tu_dataset(d, "TOY")
    # a self-loop line, a duplicate line, and edges listed in one direction only
    (tmp_path / "TOY" / "TOY_A.txt").write_text("1, 2\n2, 2\n2, 3\n1, 3\n1, 2\n5, 4\n3, 1\n")
    loose = load_tu_dataset(d, "TOY")
    for g, h in zip(plain.graphs, loose.graphs):
        np.testing.assert_array_equal(g.adjacency, h.adjacency)
        np.testing.assert_array_equal(g.features, h.features)
    assert loose.graphs[0].adjacency[1, 1] == 0.0


@pytest.mark.parametrize("labels, expected", [
    ("1\n-1\n", [1, 0]),
    ("-3\n-7\n", [1, 0]),
    ("5\n40\n", [0, 1]),
    ("100000000000000000000\n-7\n", [1, 0]),
    ("-100000000000000000000\n100000000000000000000\n", [0, 1]),
])
def test_load_tu_remaps_any_integer_graph_labels(tmp_path, labels, expected):
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / "TOY_graph_labels.txt").write_text(labels)
    ds = load_tu_dataset(d, "TOY")
    assert ds.num_classes == 2
    assert [g.label for g in ds.graphs] == expected
    assert all(type(g.label) is int for g in ds.graphs)


def test_load_tu_one_hot_encodes_node_labels_beyond_int64(tmp_path):
    d = write_fixture(tmp_path, with_node_labels=True)
    (tmp_path / "TOY" / "TOY_node_labels.txt").write_text(
        "0\n100000000000000000000\n0\n-5\n100000000000000000000\n")
    ds = load_tu_dataset(d, "TOY")
    # categories in sorted order: -5, 0, 10**20
    assert ds.feature_dim == 3
    np.testing.assert_array_equal(ds.graphs[0].features,
                                  np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]], dtype=float))
    np.testing.assert_array_equal(ds.graphs[1].features,
                                  np.array([[1, 0, 0], [0, 0, 1]], dtype=float))


@pytest.mark.parametrize("edge", ["1, 100000000000000000000", "-100000000000000000000, 2"])
def test_load_tu_node_id_beyond_int64_is_a_format_error(tmp_path, edge):
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / "TOY_A.txt").write_text(f"1, 2\n2, 1\n2, 3\n3, 2\n{edge}\n1, x\n")
    with pytest.raises(FormatError) as exc:
        load_tu_dataset(d, "TOY")
    assert str(exc.value).endswith("TOY_A.txt:5: node id out of range")


def test_load_tu_undecodable_file(tmp_path):
    d = write_fixture(tmp_path)
    (tmp_path / "TOY" / "TOY_graph_labels.txt").write_bytes(b"1\n\xff\xfe\n")
    with pytest.raises(LoadError):
        load_tu_dataset(d, "TOY")


def test_load_tu_rejects_ragged_attributes(tmp_path):
    d = write_fixture(tmp_path, with_attrs=True)
    (tmp_path / "TOY" / "TOY_node_attributes.txt").write_text(
        "0.5, 1.0\n0.1\n0.0, 0.0\n2.0, 3.0\n4.0, 5.0\n")
    with pytest.raises(FormatError):
        load_tu_dataset(d, "TOY")


def test_tu_round_trip(tmp_path):
    ds = load_tu_dataset(write_fixture(tmp_path, with_attrs=True), "TOY")
    out = tmp_path / "out"
    write_tu_dataset(ds.graphs, str(out), "TOY")
    again = load_tu_dataset(str(out), "TOY")
    assert len(again) == len(ds)
    for g, h in zip(ds.graphs, again.graphs):
        np.testing.assert_array_equal(g.adjacency, h.adjacency)
        np.testing.assert_allclose(g.features, h.features, atol=0)
        assert g.label == h.label


def _adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def test_write_tu_golden_files(tmp_path):
    # one-hot rows and an isolated node; a 1-node graph holding -0.0 and
    # 1e-300; integer-typed features on an unlabeled graph; fractional,
    # huge and subnormal values
    graphs = [
        Graph(4, _adjacency(4, [(0, 1), (1, 2)]),
              np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]), 1),
        Graph(1, np.zeros((1, 1)), np.array([[-0.0, 1e-300, 0.25]]), 0),
        Graph(3, _adjacency(3, [(0, 1), (1, 2), (0, 2)]),
              np.array([[1, 2, 3], [0, -1, 7], [1, 2, 3]], dtype=np.int64), None),
        Graph(2, _adjacency(2, [(0, 1)]),
              np.array([[0.1, 1e300, -2.5], [1 / 3, 5e-324, 0.0]]), 2),
    ]
    write_tu_dataset(graphs, str(tmp_path), "GOLD")
    expected = {
        "A": "1, 2\n2, 1\n2, 3\n3, 2\n6, 7\n6, 8\n7, 6\n7, 8\n8, 6\n8, 7\n9, 10\n10, 9\n",
        "graph_indicator": "1\n1\n1\n1\n2\n3\n3\n3\n4\n4\n",
        "graph_labels": "1\n0\n0\n2\n",
        "node_attributes": ("1.0, 0.0, 0.0\n0.0, 1.0, 0.0\n0.0, 0.0, 1.0\n1.0, 0.0, 0.0\n"
                            "-0.0, 1e-300, 0.25\n"
                            "1.0, 2.0, 3.0\n0.0, -1.0, 7.0\n1.0, 2.0, 3.0\n"
                            "0.1, 1e+300, -2.5\n0.3333333333333333, 5e-324, 0.0\n"),
    }
    assert sorted(os.listdir(tmp_path)) == sorted(f"GOLD_{key}.txt" for key in expected)
    for key, text in expected.items():
        assert (tmp_path / f"GOLD_{key}.txt").read_bytes() == text.encode()


def test_write_tu_empty_dataset(tmp_path):
    write_tu_dataset([], str(tmp_path), "EMPTY")
    for key in ("A", "graph_indicator", "graph_labels", "node_attributes"):
        assert (tmp_path / f"EMPTY_{key}.txt").read_bytes() == b""


def test_load_is_deterministic(tmp_path):
    d = write_fixture(tmp_path, with_node_labels=True)
    a = load_tu_dataset(d, "TOY")
    b = load_tu_dataset(d, "TOY")
    for g, h in zip(a.graphs, b.graphs):
        np.testing.assert_array_equal(g.adjacency, h.adjacency)
        np.testing.assert_array_equal(g.features, h.features)


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def toy_dataset(per_class=12, classes=2):
    graphs = []
    for c in range(classes):
        for _ in range(per_class):
            g = edge_graph()
            g.label = c
            graphs.append(g)
    return Dataset(graphs, classes, 1, "toy")


def test_folds_partition_test_sets():
    ds = toy_dataset()
    folds = stratified_folds(ds, 4, seed=0)
    assert len(folds) == 4
    all_test = sorted(i for f in folds for i in f.test_idx)
    assert all_test == list(range(len(ds)))
    for f in folds:
        combined = sorted(f.train_idx + f.val_idx + f.test_idx)
        assert combined == list(range(len(ds)))
        assert not (set(f.train_idx) & set(f.val_idx))
        assert not (set(f.train_idx) & set(f.test_idx))
        assert not (set(f.val_idx) & set(f.test_idx))


def test_folds_are_stratified():
    ds = toy_dataset(per_class=20)
    labels = ds.labels()
    for f in stratified_folds(ds, 5, seed=1):
        test_labels = labels[f.test_idx]
        assert (test_labels == 0).sum() == 4
        assert (test_labels == 1).sum() == 4
        val_labels = labels[f.val_idx]
        assert (val_labels == 0).sum() >= 1
        assert (val_labels == 1).sum() >= 1


def test_folds_deterministic_per_seed():
    ds = toy_dataset()
    a = stratified_folds(ds, 3, seed=7)
    b = stratified_folds(ds, 3, seed=7)
    c = stratified_folds(ds, 3, seed=8)
    assert all(x.test_idx == y.test_idx for x, y in zip(a, b))
    assert any(x.test_idx != y.test_idx for x, y in zip(a, c))


@pytest.mark.parametrize("k", range(3, 11))
def test_folds_rotate_validation(k):
    # MUTAG's class sizes, at which each fold's validation share fits in
    # the chunk after its test chunk
    graphs = [Graph(2, edge_graph().adjacency, np.ones((2, 1)), c)
              for c, size in enumerate((125, 63)) for _ in range(size)]
    ds = Dataset(graphs, 2, 1, "mutag-sized")
    folds = stratified_folds(ds, k, seed=0)
    val_count = np.zeros(len(ds), dtype=int)
    train_count = np.zeros(len(ds), dtype=int)
    for f in folds:
        val_count[f.val_idx] += 1
        train_count[f.train_idx] += 1
    assert val_count.max() <= 1
    assert train_count.min() >= 1


def test_folds_config_errors():
    ds = toy_dataset(per_class=3)
    with pytest.raises(ConfigError):
        stratified_folds(ds, 1, seed=0)
    with pytest.raises(ConfigError):
        stratified_folds(ds, 4, seed=0)  # class smaller than k
