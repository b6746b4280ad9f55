import math

import numpy as np
import pytest

from treesample import (Graph, NumericalOverflowError, TmdConfig, WeightFn,
                        const_weights, empty_graph, feature_norms, tree_norm,
                        tree_norm_batch, tree_norm_naive, tree_norm_report)

from helpers import cfg, random_graph, random_table_cfg


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
