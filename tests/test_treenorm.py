import itertools
import math
import re

import numpy as np
import pytest

from treesample import (DatasetError, Graph, NumericalOverflowError, TmdConfig, WeightFn,
                        empty_graph, feature_norms, induced_subgraph, select_subsets,
                        subset_tree_norm_sweep, tree_norm)
from treesample.oracles import tree_norm_naive
from treesample.node_select import (_k_bfs_candidates as k_bfs_candidates,
                                    _kcore_candidate as kcore_candidate,
                                    _rw_candidate as rw_candidate)
from treesample.treenorm import _SUBSET_BLOCK

from helpers import (cfg, random_graph, random_table_cfg,
                     reference_subset_tree_norms)


def test_feature_norms_l1_l2():
    f = np.array([[3.0, -4.0], [0.0, 0.0]])
    assert list(feature_norms(f, "l1")) == [7.0, 0.0]
    assert list(feature_norms(f, "l2")) == [5.0, 0.0]


def test_triangle_and_path_worked_examples():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1)))
    p2 = Graph(2, [(0, 1)], np.ones((2, 1)))
    assert tree_norm(k3, cfg(2)) == 9.0
    assert tree_norm(p2, cfg(2)) == 4.0
    assert tree_norm(k3, cfg(1)) == 3.0  # depth 1 ignores edges entirely


def test_weighted_features_example():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)], np.array([[3.0], [1.0], [1.0]]))
    assert tree_norm(g, cfg(2)) == 15.0


def test_empty_graph_norm_is_zero():
    assert tree_norm(empty_graph(2), cfg(3)) == 0.0


def test_level_weights_scale_deep_levels_only():
    p2 = Graph(2, [(0, 1)], np.ones((2, 1)))
    # depth 2 with w(1) = 3: value = 2 + 3 * 2
    assert tree_norm(p2, cfg(2, w=3.0)) == 8.0
    table = TmdConfig(depth=3, weights=WeightFn("table", (5.0, 2.0)))
    # levels: own features + w(2) * first walk + w(2) w(1) * second walk
    assert tree_norm(p2, table) == 2.0 + 2.0 * 2.0 + 2.0 * 5.0 * 2.0


def test_matches_naive_oracle_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        g = random_graph(rng, n_max=7)
        c = random_table_cfg(rng, int(rng.integers(1, 5)),
                             norm=rng.choice(["l1", "l2"]))
        fast = tree_norm(g, c)
        slow = tree_norm_naive(g, c)
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.filterwarnings("error")
def test_overflow_raises():
    # no np.errstate: a numpy overflow warning would be raised as an error
    g = Graph(2, [(0, 1)], np.full((2, 1), 1e308))
    with pytest.raises(NumericalOverflowError):
        tree_norm(g, cfg(3, w=1e10))
    # every entry is finite, but their exact sum is not
    huge = Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1.5e308))
    with pytest.raises(NumericalOverflowError) as info:
        tree_norm(huge, TmdConfig(depth=1, feature_norm="l1"))
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
def test_l2_norm_of_huge_feature_does_not_overflow():
    # squaring 1e200 overflows, but its norm fits in a float
    g = Graph(1, [], [[1e200]])
    assert tree_norm(g, TmdConfig(depth=1, feature_norm="l2")) == 1e200
    rows = np.array([[3.0, 4.0], [-1e200, 1e200], [np.inf, 1.0]])
    assert list(feature_norms(rows, "l2")) == [5.0, math.hypot(1e200, 1e200), np.inf]


def test_norm_choice_matters():
    g = Graph(1, [], np.array([[3.0, 4.0]]))
    assert tree_norm(g, cfg(1, norm="l1")) == 7.0
    assert tree_norm(g, cfg(1, norm="l2")) == 5.0


def _assert_same_norms(g, subsets, c):
    got = subset_tree_norm_sweep(g, subsets, [c])[0]
    want = reference_subset_tree_norms(g, subsets, c)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_subset_norms_bit_identical_to_induced_subgraphs(norm, depth):
    rng = np.random.default_rng(40 + depth)
    for trial in range(12):
        g = random_graph(rng, n_max=14, n_min=2, feature_dim=int(rng.integers(1, 10)),
                         p=float(rng.uniform(0.1, 0.7)))
        c = (random_table_cfg(rng, depth, norm=norm) if trial % 2
             else cfg(depth, w=float(rng.choice([0.5, 1.0, 2.0, 4.0])), norm=norm))
        k = int(rng.integers(1, g.node_count + 1))
        subsets = list(k_bfs_candidates(g, k))
        subsets += [rw_candidate(g, k, np.random.default_rng(trial)), kcore_candidate(g, k)]
        subsets += list(itertools.combinations(range(g.node_count), min(k, 3)))
        _assert_same_norms(g, subsets, c)


def test_subset_norm_sweep_rows_match_subset_norms_per_config():
    rng = np.random.default_rng(44)
    g = random_graph(rng, n_max=14, n_min=8, feature_dim=3, p=0.4)
    subsets = list(k_bfs_candidates(g, 5)) + [tuple(range(g.node_count)), ()]
    cfgs = [cfg(3, 2.0), cfg(1, norm="l1"), random_table_cfg(rng, 4, norm="l1"),
            cfg(2, 0.5), random_table_cfg(rng, 3)]
    got = subset_tree_norm_sweep(g, subsets, cfgs)
    assert got.shape == (len(cfgs), len(subsets))
    for row, c in zip(got, cfgs):
        assert row.tobytes() == reference_subset_tree_norms(g, subsets, c).tobytes()
    assert subset_tree_norm_sweep(g, subsets, []).shape == (0, len(subsets))
    assert subset_tree_norm_sweep(g, [], cfgs).shape == (len(cfgs), 0)


def test_subset_norms_span_several_chunks():
    rng = np.random.default_rng(7)
    n = 530
    upper = np.triu(rng.random((n, n)) < 3.0 / n, 1)
    g = Graph(n, zip(*np.nonzero(upper)), rng.standard_normal((n, 3)))
    subsets = list(k_bfs_candidates(g, 40))
    assert len(subsets) > 3 * _SUBSET_BLOCK // (g.node_count + g.edge_count)
    _assert_same_norms(g, subsets, cfg(3))


def test_subset_norms_of_empty_and_one_node_graphs():
    c = cfg(3)
    assert subset_tree_norm_sweep(empty_graph(2), [()], [c])[0].tolist() == [0.0]
    assert subset_tree_norm_sweep(empty_graph(2), [], [c])[0].shape == (0,)
    one = Graph(1, [], [[3.0, 4.0]])
    _assert_same_norms(one, [(), (0,)], c)
    assert subset_tree_norm_sweep(one, [(0,)], [c])[0].tolist() == [5.0]
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], np.arange(4.0)[:, None] + 1.0)
    # an empty candidate scores 0; repeated nodes count once
    _assert_same_norms(g, [(), (1, 1, 2), (3, 0, 2)], c)
    assert subset_tree_norm_sweep(g, [(1, 1, 2)], [c])[0, 0] == tree_norm(
        Graph(2, [(0, 1)], [[2.0], [3.0]]), c)
    # any iterable of node iterables, as induced_subgraph takes
    assert (subset_tree_norm_sweep(g, (iter(s) for s in [{2, 1}, range(4)]), [c]).tolist()
            == subset_tree_norm_sweep(g, [(1, 2), (0, 1, 2, 3)], [c]).tolist())


def test_subset_norms_with_column_major_features():
    # wide rows summed in a different order would move the last bits
    rng = np.random.default_rng(8)
    f = np.asfortranarray(rng.standard_normal((12, 11)) * 1e3)
    g = Graph(12, [(i, i + 1) for i in range(11)], f)
    for norm in ("l1", "l2"):
        _assert_same_norms(g, [tuple(range(0, 12, 2)), tuple(range(12))],
                           cfg(3, norm=norm))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_subset_norms_ignore_overflow_on_dropped_nodes(norm):
    # node 0's feature norm is inf and node 5 carries a 1e200 l2 feature:
    # candidates without node 0 must come out finite and exact, never NaN
    feats = np.ones((6, 2))
    feats[0] = 1.5e308
    feats[5] = (1e200, 0.0)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], feats)
    c = cfg(3, w=2.0, norm=norm)
    with pytest.raises(NumericalOverflowError):
        tree_norm(g, c)
    kept = [(1, 2, 3), (2, 3, 4, 5), (4, 5), (5,), (), (1, 2, 3, 4, 5)]
    _assert_same_norms(g, kept, c)
    assert np.isfinite(subset_tree_norm_sweep(g, kept, [c])[0]).all()
    for subset in [(0,), (0, 1, 2), (4, 5, 0)]:
        with pytest.raises(NumericalOverflowError):
            subset_tree_norm_sweep(g, kept + [subset], [c])


@pytest.mark.parametrize("bad", [[(0, 3)], [(1,), (-1,)], [(2, 0), (-4, 1)],
                                 [(2 ** 70,)]])
def test_subset_norms_reject_nodes_outside_the_graph(bad):
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    with pytest.raises(DatasetError, match="outside 0..2"):
        subset_tree_norm_sweep(g, bad, [cfg(2)])
    with pytest.raises(DatasetError):
        subset_tree_norm_sweep(empty_graph(1), [(0,)], [cfg(2)])


# int() and np.fromiter would quietly read each of these as node 0 or 1
@pytest.mark.parametrize("bad", [0.7, True, "1", np.float64(1.0), np.bool_(False)])
def test_node_indices_that_are_not_integers_are_refused(bad):
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    c = cfg(2)
    match = f"node {bad!r} is not an integer"
    with pytest.raises(DatasetError, match=f"induced_subgraph: {re.escape(match)}"):
        induced_subgraph(g, [bad, 2])
    with pytest.raises(DatasetError, match=f"subset_tree_norm_sweep: {re.escape(match)}"):
        subset_tree_norm_sweep(g, [(0, 1), (bad, 2)], [c])


# each entry with the node list it is given and the name its message carries
_NODE_ENTRIES = {
    "neighbors": (lambda g, c, v: g.neighbors(v), "neighbors"),
    "induced_subgraph": (lambda g, c, v: induced_subgraph(g, [0, v]), "induced_subgraph"),
    "subset_tree_norm_sweep": (lambda g, c, v: subset_tree_norm_sweep(g, [(0, 1), (0, v)], [c]),
                               "subset_tree_norm_sweep"),
    "select_subsets": (lambda g, c, v: select_subsets(g, {(0,): "a", (0, v): "b"}, [c]),
                       "subset_tree_norm_sweep"),
}


@pytest.mark.parametrize("entry", list(_NODE_ENTRIES))
@pytest.mark.parametrize("bad, message", [
    (0.7, "node 0.7 is not an integer"), (True, "node True is not an integer"),
    ("1", "node '1' is not an integer"), (-1, "node -1 outside 0..2"),
    (3, "node 3 outside 0..2"), (2 ** 70, f"node {2 ** 70} outside 0..2"),
    (np.uint64(2 ** 63 + 1), f"node {2 ** 63 + 1} outside 0..2"),
], ids=["float", "bool", "str", "negative", "n", "int-past-int64", "uint64-past-int64"])
def test_every_entry_refuses_a_bad_node_in_one_message(entry, bad, message):
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    call, name = _NODE_ENTRIES[entry]
    with pytest.raises(DatasetError) as info:
        call(g, cfg(2), bad)
    assert str(info.value) == f"{name}: {message}"


def test_the_node_gate_names_the_first_bad_node():
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    with pytest.raises(DatasetError, match=r"^induced_subgraph: node 5 outside 0..2$"):
        induced_subgraph(g, [0, 5, 0.7, -1])
    with pytest.raises(DatasetError, match=r"^induced_subgraph: node 0.7 is not an integer$"):
        induced_subgraph(g, [0, 0.7, 5])


def test_numpy_integer_node_indices_are_kept():
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    c = cfg(2)
    nodes = [np.int32(0), np.int64(1)]
    assert induced_subgraph(g, nodes) == induced_subgraph(g, [0, 1])
    assert (subset_tree_norm_sweep(g, [nodes], [c])
            == subset_tree_norm_sweep(g, [[0, 1]], [c])).all()
