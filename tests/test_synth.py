import numpy as np
import pytest

from treesample import (ConfigError, TmdConfig, clustered_dataset, const_weights,
                        kmedoids, nearest_medoid, pairwise_matrix, random_pairs,
                        synthetic_dataset, wl_counterexample_pair)

from helpers import random_regular_graph


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
    with pytest.raises(ConfigError):
        clustered_dataset(3, 5, seed=0)
    with pytest.raises(ConfigError):
        clustered_dataset(10, 0, seed=0)


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


def test_wl_counterexample_shape():
    g1, g2 = wl_counterexample_pair(4)
    assert g1.edges == g2.edges == [(0, 1), (1, 2), (2, 3)]
    assert np.array_equal(g2.features, 10.0 * g1.features)
    with pytest.raises(ConfigError):
        wl_counterexample_pair(1)


def test_random_regular_graph_degrees():
    g = random_regular_graph(20, 4, seed=3)
    assert (g.degrees() == 4).all()
    assert g.edge_count == 40
    same = random_regular_graph(20, 4, seed=3)
    assert g == same
    with pytest.raises(ConfigError):
        random_regular_graph(7, 3, seed=0)  # odd stub count
