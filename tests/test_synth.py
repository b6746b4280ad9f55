import re

import numpy as np
import pytest

from treesample import (ConfigError, Graph, TmdConfig, clustered_dataset, const_weights,
                        kmedoids, nearest_medoid, pairwise_matrix, random_graph,
                        random_pairs, synthetic_dataset, wl_counterexample_pair)

from helpers import random_regular_graph


def _pair_loop_graph(rng, n, p, feature_dim, label):
    """G(n, p) by one scalar draw per node pair, i ascending, then j."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges, rng.standard_normal((n, feature_dim)), label=label)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 18, 41])
def test_random_graph_takes_the_draws_of_a_pair_loop(n):
    # one vector draw over the node pairs takes the values a scalar draw per
    # pair takes: the same graph, and the generator left at the same draw
    for p in (0.0, 0.2, 0.5, 1.0):
        ours, loop = np.random.default_rng([n, 7]), np.random.default_rng([n, 7])
        g = random_graph(ours, n, p, feature_dim=3, label=2)
        assert g == _pair_loop_graph(loop, n, p, 3, label=2)
        assert ours.random() == loop.random()


@pytest.mark.parametrize("p", [-0.1, 7, 1.5, -1e-300])
def test_random_graph_refuses_a_p_outside_0_to_1(p):
    # p=7 drew a complete graph and a negative p an edgeless one
    with pytest.raises(ConfigError, match=re.escape(f"p must be in [0, 1], got {float(p)}")):
        random_graph(np.random.default_rng(0), 4, p)


def test_clustered_dataset_is_deterministic():
    a = clustered_dataset(20, 4, seed=5)
    b = clustered_dataset(20, 4, seed=5)
    assert a.graphs == b.graphs
    c = clustered_dataset(20, 4, seed=6)
    assert a.graphs != c.graphs


def test_clustered_dataset_labels_cycle_families():
    ds = clustered_dataset(12, 3, seed=0)
    assert [g.label for g in ds.graphs] == [0, 1, 2] * 4
    # same family means same backbone, different node features
    assert ds[0].edges == ds[3].edges
    assert ds[0].node_count == ds[3].node_count
    assert not np.array_equal(ds[0].features, ds[3].features)


def test_clustered_dataset_validates_args():
    # True ran as 1 (a 1-graph dataset), and 2.5 raised a bare TypeError
    for make, args, message in (
            (synthetic_dataset, (True, 0), "n_graphs must be an integer, got True"),
            (clustered_dataset, (2.5, 1), "n_graphs must be an integer, got 2.5"),
            (clustered_dataset, (4, True), "families must be an integer, got True"),
            (clustered_dataset, ("4", 2), "n_graphs must be an integer, got '4'"),
            (clustered_dataset, (3, 5), "n_graphs must be >= 5, got 3"),
            (clustered_dataset, (10, 0), "families must be >= 1, got 0")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make(*args)
    assert len(clustered_dataset(np.int64(4), np.int64(2))) == 4


def test_clusters_are_pure_under_medoid_assignment():
    ds = clustered_dataset(20, 5, seed=1)
    labels = np.array([g.label for g in ds.graphs])
    cfg = TmdConfig(depth=3, weights=const_weights(1.0))
    dm = pairwise_matrix(ds, cfg)
    sel = kmedoids(dm, 5)
    kappa, _ = nearest_medoid(dm, sel.indices)
    assert sorted(labels[list(sel.indices)]) == [0, 1, 2, 3, 4]
    assert (labels[kappa] == labels).all()


def test_synthetic_dataset_wraps_clustered():
    ds = synthetic_dataset(8, seed=2)
    assert len(ds) == 8
    assert ds.feature_dim == 3


def test_random_pairs_distinct_and_seeded():
    ds = synthetic_dataset(10, seed=0)
    pairs = random_pairs(ds, 20, seed=4)
    assert len(pairs) == 20
    assert pairs == random_pairs(ds, 20, seed=4)
    assert all(a != b and 0 <= a < len(ds) and 0 <= b < len(ds) for a, b in pairs)
    assert random_pairs(ds, np.int64(20), seed=4) == pairs


def test_wl_counterexample_shape():
    g1, g2 = wl_counterexample_pair()
    assert g1.edges == g2.edges == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert g1.features.tolist() == [[1.0], [2.0], [3.0], [4.0], [5.0]]
    assert np.array_equal(g2.features, 10.0 * g1.features)


def test_random_regular_graph_degrees():
    g = random_regular_graph(20, 4, seed=3)
    assert (g.degrees() == 4).all()
    assert g.edge_count == 40
    same = random_regular_graph(20, 4, seed=3)
    assert g == same
    with pytest.raises(ConfigError):
        random_regular_graph(7, 3, seed=0)  # odd stub count
