import itertools
import math

import numpy as np
import pytest

from treesample import (DatasetError, Graph, NumericalOverflowError, TmdConfig,
                        WeightFn, const_weights, empty_graph, feature_norms,
                        k_bfs_candidates, kcore_candidate, rw_candidate,
                        subset_tree_norms, tree_norm, tree_norm_batch,
                        tree_norm_naive, tree_norm_report)
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
    report = tree_norm_report(empty_graph(2), cfg(3))
    assert report.value == 0.0
    assert report.level_mass == (0.0, 0.0, 0.0)


def test_level_mass_tracks_walk_counts():
    # path a-b: level-1 mass 2, level-2 neighbor sums are 1+1
    p2 = Graph(2, [(0, 1)], np.ones((2, 1)))
    report = tree_norm_report(p2, cfg(2))
    assert report.level_mass == (2.0, 2.0)
    assert report.value == 4.0


def test_level_weights_scale_deep_levels_only():
    p2 = Graph(2, [(0, 1)], np.ones((2, 1)))
    # depth 2 with w(1) = 3: value = 2 + 3 * 2
    assert tree_norm(p2, cfg(2, w=3.0)) == 8.0
    table = TmdConfig(depth=3, weights=WeightFn("table", table=(5.0, 2.0)))
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


def test_batch_matches_scalar():
    rng = np.random.default_rng(4)
    graphs = [random_graph(rng) for _ in range(5)]
    c = cfg(3)
    batch = tree_norm_batch(graphs, c)
    assert list(batch) == [tree_norm(g, c) for g in graphs]


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
    got = subset_tree_norms(g, subsets, c)
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
        subsets = list(k_bfs_candidates(g, k).subsets)
        subsets += [rw_candidate(g, k, trial), kcore_candidate(g, k)]
        subsets += list(itertools.combinations(range(g.node_count), min(k, 3)))
        _assert_same_norms(g, subsets, c)


def test_subset_norms_span_several_chunks():
    rng = np.random.default_rng(7)
    n = 530
    upper = np.triu(rng.random((n, n)) < 3.0 / n, 1)
    g = Graph(n, zip(*np.nonzero(upper)), rng.standard_normal((n, 3)))
    subsets = k_bfs_candidates(g, 40).subsets
    assert len(subsets) > 3 * _SUBSET_BLOCK // (g.node_count + g.edge_count)
    _assert_same_norms(g, subsets, cfg(3))


def test_subset_norms_of_empty_and_one_node_graphs():
    c = cfg(3)
    assert subset_tree_norms(empty_graph(2), [()], c).tolist() == [0.0]
    assert subset_tree_norms(empty_graph(2), [], c).shape == (0,)
    one = Graph(1, [], [[3.0, 4.0]])
    _assert_same_norms(one, [(), (0,)], c)
    assert subset_tree_norms(one, [(0,)], c).tolist() == [5.0]
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], np.arange(4.0)[:, None] + 1.0)
    # an empty candidate scores 0; repeated nodes count once
    _assert_same_norms(g, [(), (1, 1, 2), (3, 0, 2)], c)
    assert subset_tree_norms(g, [(1, 1, 2)], c)[0] == tree_norm(
        Graph(2, [(0, 1)], [[2.0], [3.0]]), c)
    # any iterable of node iterables, as induced_subgraph takes
    assert (subset_tree_norms(g, (iter(s) for s in [{2, 1}, range(4)]), c).tolist()
            == subset_tree_norms(g, [(1, 2), (0, 1, 2, 3)], c).tolist())


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
    assert np.isfinite(subset_tree_norms(g, kept, c)).all()
    for subset in [(0,), (0, 1, 2), (4, 5, 0)]:
        with pytest.raises(NumericalOverflowError):
            subset_tree_norms(g, kept + [subset], c)


@pytest.mark.parametrize("bad", [[(0, 3)], [(1,), (-1,)], [(2, 0), (-4, 1)],
                                 [(2 ** 70,)]])
def test_subset_norms_reject_nodes_outside_the_graph(bad):
    g = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    with pytest.raises(DatasetError, match="outside 0..2"):
        subset_tree_norms(g, bad, cfg(2))
    with pytest.raises(DatasetError):
        subset_tree_norms(empty_graph(1), [(0,)], cfg(2))
