import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treesample import (Dataset, DatasetError, Graph, dataset_fingerprint, empty_graph,
                        induced_subgraph, load_jsonl, load_tu, make_dataset, save_jsonl, tmd)
from treesample.oracles import blank_tree, computation_tree

from treesample.graphs import _simple_edges

from helpers import (cfg, random_graph, reference_dataset_fingerprint,
                     reference_simple_edges)


def test_edges_canonicalized_and_sorted():
    g = Graph(3, [(2, 1), (1, 0)], np.ones((3, 1)))
    assert g.edges == [(0, 1), (1, 2)]


def test_features_coerced_to_float64_readonly():
    g = Graph(2, [(0, 1)], [[1], [2]])
    assert g.features.dtype == np.float64
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0


def test_graph_copies_the_callers_features():
    a = np.ones((2, 1))
    g = Graph(2, [], a)
    a[0, 0] = 5.0  # the caller's array stays writable
    assert g.features[0, 0] == 1.0
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0


def test_empty_graph_is_valid():
    g = empty_graph(3)
    assert g.node_count == 0
    assert g.features.shape == (0, 3)


def test_validate_flags_problems():
    with pytest.raises(DatasetError) as info:
        Graph(2, [(0, 1), (1, 0), (1, 1), (0, 5)], np.ones((3, 1)))
    problems = str(info.value)
    assert "duplicate edge" in problems
    assert "self-loop" in problems
    assert "outside" in problems
    assert "feature rows" in problems


@pytest.mark.parametrize("args, problem", [
    ((3, [(0, 1.5)], np.ones((3, 1))), r"edge \(0, 1.5\) is not a pair of integers"),
    ((3, [(True, 2)], np.ones((3, 1))), r"edge \(True, 2\) is not a pair of integers"),
    ((3, [(0, 1, 2)], np.ones((3, 1))), r"edge \(0, 1, 2\) is not a pair of integers"),
    ((3, [(0, 1), (1, 0)], np.ones((3, 1))), r"duplicate edge \(0,1\)"),
    ((3, [], np.ones((2, 1))), r"feature rows \(2\) != node_count \(3\)"),
    ((2, [], [[1.0], [np.nan]]), "non-finite"),
    ((3, [], np.ones(3)), "must be 2-D"),
    ((-1, [], np.ones((0, 1))), "node_count must be an integer >= 0, got -1"),
    ((2.7, [], np.ones((3, 1))), "node_count must be an integer >= 0, got 2.7"),
    ((2, [], np.ones((2, 1)), 1.5), "label 1.5 is not an integer"),
    ((2, [], np.zeros((2, 0))), "feature dimension must be >= 1"),
], ids=["float-endpoint", "bool-endpoint", "three-element-edge", "edge-in-both-orders",
        "too-few-feature-rows", "nan-feature", "1d-features", "negative-n", "float-n",
        "float-label", "zero-width-features"])
def test_graph_rejects_invalid_input_on_construction(args, problem):
    with pytest.raises(DatasetError, match=problem):
        Graph(*args)


def test_graph_names_every_problem_and_takes_numpy_integers():
    with pytest.raises(DatasetError) as info:
        Graph(2.5, [(0, "1"), (2, 2)], [[np.inf]], label=True)
    assert str(info.value).count(";") == 4  # five problems in one message
    g = Graph(np.int64(3), [(np.int64(2), np.int32(0))], np.ones((3, 1)),
              label=np.int8(1))
    assert g.edges == [(0, 2)] and g.node_count == 3 and g.label == 1
    assert all(type(x) is int for x in (*g.edges[0], g.node_count, g.label))


def test_built_graph_cannot_change():
    g = Graph(2, [(0, 1)], np.ones((2, 1)))
    g.edges.append((1, 1))  # a fresh list each time: the graph keeps its edge
    assert g.edges == [(0, 1)] and g.edge_count == 1
    for name, value in (("node_count", 7), ("edges", [(1, 1)]),
                        ("features", np.ones((7, 1))), ("label", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g.node_count == 2 and g.label is None
    for ends in g.edge_arrays():
        assert not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[0] = 1


_EDGE_ITEMS = st.one_of(
    st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
    st.tuples(st.integers(0, 5).map(np.int64), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.floats(0, 5)),
    st.tuples(st.booleans(), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.lists(st.integers(0, 5), min_size=2, max_size=2),
    st.just("01"), st.none(), st.integers(0, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_EDGE_ITEMS, max_size=12), st.integers(), st.none()),
       st.one_of(st.none(), st.integers(0, 6)))
def test_edge_gate_matches_the_original_two_pass_gate(edges, n):
    # same pairs, same messages in the same order: non-pairs first in input
    # order, then range, self-loop and duplicate problems in sorted order
    got, want = [], []
    assert _simple_edges(edges, n, got) == reference_simple_edges(edges, n, want)
    assert got == want


def test_neighbors_and_degrees():
    g = Graph(4, [(0, 1), (0, 2), (2, 3)], np.ones((4, 1)))
    assert list(g.neighbors(0)) == [1, 2]
    assert list(g.neighbors(3)) == [2]
    assert list(g.degrees()) == [2, 1, 2, 1]
    eu, ev = g.edge_arrays()
    assert list(zip(eu, ev)) == [(0, 1), (0, 2), (2, 3)]


@pytest.mark.parametrize("v, message", [
    (-1, "node -1 outside 0..2"), (3, "node 3 outside 0..2"),
    (np.int64(-1), "node -1 outside 0..2"),
    (True, "node True is not an integer"), (1.0, "node 1.0 is not an integer"),
])
def test_neighbors_refuses_a_node_outside_the_graph(v, message):
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    with pytest.raises(DatasetError, match=f"^neighbors: {message}$"):
        g.neighbors(v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), max_size=30,
                         unique_by=frozenset))))
def test_csr_matches_edge_list(case):
    n, pairs = case  # distinct unordered pairs, each in either order
    g = Graph(n, pairs, np.ones((n, 1)))
    indptr, indices = g.csr()
    implied = {v: sorted([b for a, b in g.edges if a == v]
                         + [a for a, b in g.edges if b == v]) for v in range(n)}
    for v in range(n):
        assert list(g.neighbors(v)) == implied[v]
    assert np.array_equal(g.degrees(), np.diff(indptr))
    with pytest.raises(ValueError):
        g.neighbors(0)[:] = 0


def test_graph_equality_and_hash():
    a = Graph(2, [(0, 1)], [[1.0], [2.0]], label=1)
    b = Graph(2, [(1, 0)], [[1.0], [2.0]], label=1)
    c = Graph(2, [(0, 1)], [[1.0], [2.5]], label=1)
    assert a == b and hash(a) == hash(b)
    assert a != c
    # signed zeros are one value, as np.array_equal reads them
    zero, negative_zero = Graph(1, [], [[0.0]]), Graph(1, [], [[-0.0]])
    assert zero == negative_zero and hash(zero) == hash(negative_zero)
    assert len({zero, negative_zero}) == 1
    # a 0-node graph has no row, so only its width tells two of them apart
    assert empty_graph(1) != empty_graph(2)
    assert Graph(1, [], [[0.0]], label=0) != zero


def _signed_zero_twin(g):
    """``g`` with the sign of every zero feature flipped."""
    f = g.features
    return Graph(g.node_count, g.edges, np.where(f == 0.0, -f, f), g.label)


@st.composite
def _small_graphs(draw):
    """Graphs of 0-2 nodes and widths 1-2 over the features 0.0, -0.0 and
    1.0, labelled None, 0 or 1, so that two draws are often equal."""
    n, width = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    feats = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]),
                          min_size=n * width, max_size=n * width))
    edges = [(0, 1)] if n == 2 and draw(st.booleans()) else []
    return Graph(n, edges, np.reshape(feats, (n, width)),
                 draw(st.sampled_from([None, 0, 1])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_graphs(), _small_graphs())
def test_equality_hash_and_pair_order_read_one_content_key(a, b):
    same = a._key == b._key and a.label == b.label
    assert (a == b) == same and (a != b) == (not same)
    # the key's equality is content equality: np.array_equal takes 0.0 for
    # -0.0, and the width separates graphs without nodes
    assert same == (a.node_count == b.node_count and a.edges == b.edges
                    and a.feature_dim == b.feature_dim
                    and np.array_equal(a.features, b.features) and a.label == b.label)
    if a == b:
        assert hash(a) == hash(b) and len({a, b}) == 1
    twin = _signed_zero_twin(a)
    assert twin == a and hash(twin) == hash(a) and len({a, twin}) == 1
    c = cfg(2)
    assert tmd(a, twin, c) == tmd(twin, a, c) == 0.0


def test_graph_is_unequal_to_other_types_and_reprs_its_sizes():
    g = Graph(3, [(0, 1)], np.ones((3, 2)), label=4)
    assert g.__eq__(3) is NotImplemented
    assert (g == 3) is False and g != "g"
    assert repr(g) == "Graph(n=3, m=1, p=2, label=4)"


def test_induced_subgraph_relabels_ascending():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)],
              np.arange(10.0).reshape(5, 2))
    sub = induced_subgraph(g, [4, 1, 2])
    # kept nodes 1, 2, 4 -> new ids 0, 1, 2
    assert sub.node_count == 3
    assert sub.edges == [(0, 1), (0, 2)]
    assert np.array_equal(sub.features, g.features[[1, 2, 4]])
    with pytest.raises(DatasetError):
        induced_subgraph(g, [7])


def test_induced_subgraph_empty_selection():
    g = Graph(3, [(0, 1)], np.ones((3, 2)))
    sub = induced_subgraph(g, [])
    assert sub.node_count == 0
    assert sub.features.shape == (0, 2)


def test_computation_tree_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1)))
    t = computation_tree(g, 0, 2)
    # root plus its two neighbors, attached in ascending order
    assert t.node_count == 3
    assert list(t.parents) == [-1, 0, 0]
    assert t.depth == 2
    assert t.children() == [[1, 2], [], []]
    t3 = computation_tree(g, 0, 3)
    assert t3.node_count == 1 + 2 + 4  # each level-2 node has 2 neighbors
    assert list(t3.subtree_depths())[:1] == [3]


def test_computation_tree_stops_at_isolated_node():
    g = Graph(2, [], np.ones((2, 1)))
    t = computation_tree(g, 0, 4)
    assert t.node_count == 1
    assert t.depth == 1


def test_blank_tree_shape():
    t = blank_tree(3)
    assert t.node_count == 1
    assert t.depth == 1
    assert np.array_equal(t.features, np.zeros((1, 3)))


def test_make_dataset_checks_feature_dim():
    a = Graph(1, [], np.ones((1, 2)))
    b = Graph(1, [], np.ones((1, 3)))
    with pytest.raises(DatasetError):
        make_dataset([a, b])


def test_dataset_built_directly_checks_feature_dim():
    with pytest.raises(DatasetError, match=r"feature dimension: \[2, 3\]"):
        Dataset([Graph(1, [], [[1.0, 2.0]]), Graph(1, [], [[1.0, 2.0, 3.0]])])
    ds = Dataset([Graph(0, [], [], label=4), Graph(1, [], [[1.0, 2.0, 3.0]])])
    assert [g.features.shape for g in ds] == [(0, 3), (1, 3)] and ds[0].label == 4


def test_jsonl_round_trip_of_a_dataset_with_empty_graphs(tmp_path):
    # a 0-node graph saves its features as [] and loads 1 wide
    ds = make_dataset([empty_graph(3), Graph(1, [], [[1.0, 2.0, 3.0]])])
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.feature_dim == ds.feature_dim == 3
    assert [g.node_count for g in back] == [0, 1] and back[1] == ds[1]
    assert dataset_fingerprint(back) == dataset_fingerprint(ds)
    with pytest.raises(DatasetError, match=r"\[1, 3\]"):  # no node at all
        make_dataset([empty_graph(3), empty_graph(1)])


def test_jsonl_round_trip_keeps_empty_graphs_equal(tmp_path):
    # make_dataset rebuilds each 0-node graph at the dataset's width, so the
    # graphs it holds equal the graphs load_jsonl reads back
    graphs = [empty_graph(3), Graph(1, [], [[1.0, 2.0, 3.0]]), Graph(0, [], [], label=4)]
    ds = make_dataset(graphs)
    assert [g.features.shape for g in ds] == [(0, 3), (1, 3), (0, 3)]
    assert ds[2].label == 4 and ds[1] is graphs[1]
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.graphs == ds.graphs
    assert back[0] == empty_graph(3)
    # a 0-node graph hashes no feature bytes: the fingerprint is unchanged
    assert (dataset_fingerprint(back) == dataset_fingerprint(ds)
            == reference_dataset_fingerprint(Dataset(graphs)))


def test_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ds = make_dataset([random_graph(rng) for _ in range(6)])
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.graphs == ds.graphs
    assert back.feature_dim == ds.feature_dim


def test_load_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "features": [[1.0]]}\nnot json\n')
    with pytest.raises(DatasetError, match="bad.jsonl:2"):
        load_jsonl(path)


def test_load_jsonl_names_the_file_when_widths_disagree(tmp_path):
    path = tmp_path / "widths.jsonl"
    path.write_text('{"n": 1, "edges": [], "features": [[1.0]]}\n'
                    '{"n": 1, "edges": [], "features": [[1.0, 2.0]]}\n')
    with pytest.raises(DatasetError) as err:
        load_jsonl(path)
    assert str(err.value) == f"{path}: graphs disagree on feature dimension: [1, 2]"


def _write_tu(tmp_path, name, indicator, edges, attrs=None, labels=None):
    d = tmp_path / name
    d.mkdir()
    (d / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{i}\n" for i in indicator))
    (d / f"{name}_A.txt").write_text(
        "".join(f"{a}, {b}\n" for a, b in edges))
    if attrs is not None:
        (d / f"{name}_node_attributes.txt").write_text(
            "".join(", ".join(str(x) for x in row) + "\n" for row in attrs))
    if labels is not None:
        (d / f"{name}_graph_labels.txt").write_text(
            "".join(f"{x}\n" for x in labels))
    return d


def test_load_tu_basic(tmp_path):
    # two graphs: a 3-path (nodes 1..3) and an edge (nodes 4..5)
    d = _write_tu(tmp_path, "TOY", [1, 1, 1, 2, 2],
                  [(1, 2), (2, 1), (2, 3), (4, 5)],
                  attrs=[[0.1], [0.2], [0.3], [0.4], [0.5]], labels=[0, 1])
    ds = load_tu(d, "TOY")
    assert len(ds) == 2
    assert ds[0].edges == [(0, 1), (1, 2)]  # both-direction rows collapse
    assert ds[1].edges == [(0, 1)]
    assert ds[0].label == 0 and ds[1].label == 1
    assert np.allclose(ds[1].features[:, 0], [0.4, 0.5])


def test_load_tu_defaults_unit_features(tmp_path):
    d = _write_tu(tmp_path, "PLAIN", [1, 1], [(1, 2)])
    ds = load_tu(d, "PLAIN")
    assert np.array_equal(ds[0].features, np.ones((2, 1)))
    assert ds[0].label is None


def test_load_tu_rejects_cross_graph_edge(tmp_path):
    d = _write_tu(tmp_path, "XG", [1, 2], [(1, 2)])
    with pytest.raises(DatasetError, match="crosses graphs"):
        load_tu(d, "XG")


def test_load_tu_rejects_graph_id_past_node_count(tmp_path):
    from treesample.cli import main
    # one id this large would otherwise build 200,000 empty graphs
    d = _write_tu(tmp_path, "BIG", [1, 1, 200000], [(1, 2)])
    with pytest.raises(DatasetError, match="graph id 200000 exceeds"):
        load_tu(d, "BIG")
    assert main(["treenorm", "--dataset", str(d)]) == 2


def test_load_tu_rejects_graph_id_gap(tmp_path):
    from treesample.cli import main
    # graph 2 owns no node; it used to load as an empty graph of norm 0.0
    d = _write_tu(tmp_path, "GAP", [1, 1, 3], [(1, 2)])
    with pytest.raises(DatasetError, match="graph id 2 owns no node"):
        load_tu(d, "GAP")
    assert main(["treenorm", "--dataset", str(d)]) == 2


def test_load_tu_reads_integer_labels_and_refuses_fractions(tmp_path, capsys):
    from treesample.cli import main
    d = _write_tu(tmp_path, "LAB", [1, 2, 3], [], labels=["1", "-1", "1.0"])
    assert [g.label for g in load_tu(d, "LAB")] == [1, -1, 1]
    (d / "LAB_graph_labels.txt").write_text("1\n1.5\n-0.7\n")
    assert main(["treenorm", "--dataset", str(d)]) == 2
    assert "LAB_graph_labels.txt:2: bad graph label" in capsys.readouterr().err


def test_load_tu_missing_mandatory_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tu(tmp_path, "NOPE")


# the command line's --dataset P: a file is jsonl, a directory the TU dataset
# P/<basename P>, and any other P with a P_A.txt the TU dataset of prefix P
PATH_COMMANDS = {"dist": ["--cache", "@"], "treenorm": [],
                 "subsample-graphs": ["--k", "1", "--cache", "@"],
                 "subsample-nodes": ["--frac", "0.5"],
                 "verify": ["--mode", "stability", "--pairs", "2"]}


def _toy_tu(tmp_path, name="TOY"):
    return _write_tu(tmp_path, name, [1, 1, 1, 2, 2], [(1, 2), (2, 1), (2, 3), (4, 5)],
                     attrs=[[0.5], [1.0], [2.0], [0.25], [3.0]], labels=[0, 1])


def _run_cli(command, dataset, tmp_path, capsys):
    from treesample.cli import main
    cache = tmp_path / f"{len(list(tmp_path.glob('*.tmdc')))}.tmdc"  # a new one per run
    argv = [str(cache) if arg == "@" else arg for arg in PATH_COMMANDS[command]]
    assert main([command, *argv, "--dataset", str(dataset), "--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(PATH_COMMANDS))
def test_every_command_reads_a_tu_directory_from_the_dataset_path(command, tmp_path, capsys):
    d = _toy_tu(tmp_path)
    jsonl = tmp_path / "toy.jsonl"
    save_jsonl(load_tu(d, "TOY"), jsonl)
    out = _run_cli(command, d, tmp_path, capsys)
    assert out and _run_cli(command, d / "TOY", tmp_path, capsys) == out
    assert _run_cli(command, jsonl, tmp_path, capsys) == out


def test_dataset_dir_slash_name_picks_one_of_two_tu_datasets(tmp_path, capsys):
    one = _toy_tu(tmp_path, "ONE")
    for f in _write_tu(tmp_path, "TWO", [1, 2, 3], []).iterdir():
        f.rename(one / f.name)
    norms = {name: len(json.loads(_run_cli("treenorm", path, tmp_path, capsys))["values"])
             for name, path in [("dir", one), ("ONE", one / "ONE"), ("TWO", one / "TWO")]}
    assert norms == {"dir": 2, "ONE": 2, "TWO": 3}


def test_dataset_directory_without_tu_files_exits_2_naming_the_a_file(tmp_path, capsys):
    from treesample.cli import main
    d = tmp_path / "EMPTY"
    d.mkdir()
    assert main(["treenorm", "--dataset", str(d)]) == 2
    assert capsys.readouterr().err == f"error: missing mandatory TU file: {d}/EMPTY_A.txt\n"
    assert main(["treenorm", "--dataset", str(d / "NOPE")]) == 2
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--format", "tu"], ["--tu-name", "TOY"]])
def test_the_dataset_path_is_the_only_dataset_flag(flag, tmp_path, capsys):
    from treesample.cli import main
    d = _toy_tu(tmp_path)
    assert main(["treenorm", "--dataset", str(d), *flag]) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")


def test_load_jsonl_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bin.jsonl"
    path.write_bytes(b'{"n": 1, "edges": [], "features": [[1.0]]}\n'
                     b'{"n": 1, "edges": [], "features": [[1.0]], "x": "\xff"}\n')
    with pytest.raises(DatasetError, match="bin.jsonl:2: not UTF-8"):
        load_jsonl(path)


def test_load_jsonl_maps_infinite_counts_to_dataset_error(tmp_path):
    path = tmp_path / "inf.jsonl"
    path.write_text('{"n": 1e999, "edges": [], "features": [[1.0]]}\n')
    with pytest.raises(DatasetError, match="inf.jsonl:1: bad record"):
        load_jsonl(path)


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    rec = '{"n": 1, "edges": [], "features": [[1.0]]}'
    path.write_text(f"\n{rec}\n  \n\t\n{rec}\n\n")
    assert load_jsonl(path).graphs == [Graph(1, [], [[1.0]])] * 2


def test_load_tu_of_an_empty_indicator_is_an_empty_dataset(tmp_path):
    d = _write_tu(tmp_path, "NONE", [], [])
    ds = load_tu(d, "NONE")
    assert len(ds) == 0 and ds.graphs == []


def test_load_jsonl_keeps_universal_newlines(tmp_path):
    path = tmp_path / "cr.jsonl"
    rec = '{"n": 1, "edges": [], "features": [[1.0]]}'
    path.write_bytes(f"{rec}\r{rec}\r\n{rec}\n".encode())
    assert len(load_jsonl(path)) == 3


@pytest.mark.parametrize("suffix, text, match", [
    ("graph_indicator", b"1\n1\nx\n", "graph_indicator.txt:3: bad graph id"),
    ("graph_indicator", b"1\n\xc3\n1\n", "graph_indicator.txt:2: not UTF-8"),
    ("graph_labels", b"0\ninf\n", "graph_labels.txt:2: bad graph label"),
    ("graph_labels", b"nan\n1\n", "graph_labels.txt:1: bad graph label"),
    ("graph_labels", b"1.5\n1\n", "graph_labels.txt:1: bad graph label"),
    ("graph_labels", b"0\n-0.7\n", "graph_labels.txt:2: bad graph label"),
    ("node_attributes", b"0.1\n0.2\n\x80\n", "node_attributes.txt:3: not UTF-8"),
    ("A", b"1, 2\n2 3 4\n", "A.txt:2: bad edge row"),
    ("node_attributes", b"0.1\n0.2, 0.3\n0.4\n", "T graph 1: features are not a numeric"),
    ("node_attributes", b"0.1\n0.2\n0.3, 0.4\n", "disagree on feature dimension"),
    ("node_attributes", b"0.1\nnan\n0.3\n", "T graph 1: features contain non-finite"),
])
def test_load_tu_maps_unreadable_lines_to_dataset_error(tmp_path, suffix, text, match):
    d = _write_tu(tmp_path, "T", [1, 1, 2], [(1, 2)], attrs=[[0.1], [0.2], [0.3]],
                  labels=[0, 1])
    (d / f"T_{suffix}.txt").write_bytes(text)
    with pytest.raises(DatasetError, match=match):
        load_tu(d, "T")


def test_fingerprint_tracks_content():
    rng = np.random.default_rng(0)
    ds = make_dataset([random_graph(rng) for _ in range(4)])
    fp = dataset_fingerprint(ds)
    assert fp == dataset_fingerprint(ds)
    feats = ds[0].features.copy()
    feats[0, 0] += 1.0
    changed = make_dataset([Graph(ds[0].node_count, ds[0].edges, feats)]
                           + ds.graphs[1:])
    assert dataset_fingerprint(changed) != fp


def test_fingerprint_hashes_the_edge_list_bytes():
    # the .tmdc cache key: existing caches must keep hitting
    rng = np.random.default_rng(21)
    for trial in range(10):
        graphs = [random_graph(rng, n_max=7, n_min=0, p=float(rng.uniform(0, 0.8)))
                  for _ in range(5)]
        graphs += [empty_graph(2), Graph(3, [], np.ones((3, 2)), label=trial),
                   Graph(2, [(0, 1)], [[-0.0, 1.0], [0.0, -0.0]])]
        ds = make_dataset(graphs)
        assert dataset_fingerprint(ds) == reference_dataset_fingerprint(ds)
    # the raw float64 bytes, not the Graph content key: a -0.0 feature keeps
    # its own fingerprint although its graph equals its +0.0 twin
    ds = make_dataset([Graph(2, [(0, 1)], [[-0.0, 1.5], [0.0, -2.0]], label=1),
                       empty_graph(2)])
    twin = make_dataset([_signed_zero_twin(g) for g in ds])
    assert ds.graphs == twin.graphs
    assert dataset_fingerprint(ds) == (
        "0935a3ca3c93ca8cfbbd16f2c843fc39551266661b672d0581f2173ebd651077")
    assert dataset_fingerprint(twin) != dataset_fingerprint(ds)
