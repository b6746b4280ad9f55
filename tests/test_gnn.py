import json
import math

import numpy as np
import pytest

from treesample import (ConfigError, DatasetError, Graph, TmdConfig,
                        abs_clipped_loss, clustered_dataset, const_weights,
                        finite_erm_check, gin_forward, identity_gin,
                        induced_subgraph, kmedoids, layer_lipschitz,
                        make_dataset, node_embeddings, pairwise_matrix,
                        random_gin, stability_report, subsample_dataset,
                        wl_counterexample_pair)

from helpers import cfg, random_graph

P2 = Graph(2, [(0, 1)], np.ones((2, 1)))


def test_identity_gin_worked_example():
    m = identity_gin(feature_dim=1)
    z = node_embeddings(m, P2)
    assert np.array_equal(z, [[2.0], [2.0]])  # own feature + 1 * neighbor
    assert np.array_equal(gin_forward(m, P2), [4.0])


def test_forward_on_empty_graph_is_zero():
    from treesample import empty_graph
    m = identity_gin(feature_dim=1)
    assert np.array_equal(gin_forward(m, empty_graph(1)), [0.0])


def test_forward_rejects_wrong_feature_dim():
    m = identity_gin(feature_dim=2)
    with pytest.raises(ConfigError):
        gin_forward(m, P2)


def test_forward_is_permutation_invariant():
    rng = np.random.default_rng(0)
    m = random_gin(1, feature_dim=3, hidden=6, depth=3, eta=0.7)
    for _ in range(10):
        g = random_graph(rng, n_max=8, feature_dim=3, n_min=2)
        perm = rng.permutation(g.node_count)
        inv = np.argsort(perm)
        h = Graph(g.node_count, [(int(inv[u]), int(inv[v])) for u, v in g.edges],
                  g.features[perm])
        np.testing.assert_allclose(gin_forward(m, g), gin_forward(m, h),
                                   rtol=0, atol=1e-12)


def test_random_gin_is_seeded_and_unit_norm():
    a = random_gin(4, feature_dim=3, hidden=5, depth=3, eta=1.0)
    b = random_gin(4, feature_dim=3, hidden=5, depth=3, eta=1.0)
    assert all(np.array_equal(x.weight, y.weight)
               for x, y in zip(a.layers, b.layers))
    prof = layer_lipschitz(a)
    assert prof.converged
    for phi in prof.per_layer:
        assert abs(phi - 1.0) <= 1e-6
    assert all(np.array_equal(l.bias, np.zeros_like(l.bias)) for l in a.layers)


def test_random_gin_depth_one_is_readout_only():
    m = random_gin(0, feature_dim=2, hidden=4, depth=1, eta=1.0)
    assert m.mp_layers == ()
    assert m.out_dim == 1


def test_layer_lipschitz_known_spectra():
    ident = identity_gin(feature_dim=3)
    prof = layer_lipschitz(ident)
    assert prof.per_layer == (1.0, 1.0)
    assert prof.product == 1.0
    diag = identity_gin(feature_dim=2)
    scaled = type(diag)(layers=(type(diag.layers[0])(np.diag([2.0, 2.0]),
                                                     np.zeros(2), "identity"),
                                diag.layers[1]), eta=diag.eta)
    assert abs(layer_lipschitz(scaled).per_layer[0] - 2.0) < 1e-9


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    from treesample.gnn import GinLayer, GinModel
    for _ in range(10):
        w = rng.standard_normal((4, 4))
        m = GinModel(layers=(GinLayer(w, np.zeros(4), "identity"),), eta=1.0)
        phi = layer_lipschitz(m).per_layer[0]
        assert abs(phi - np.linalg.svd(w, compute_uv=False)[0]) < 1e-6


def test_stability_report_zero_pair_and_depth_guard():
    m = random_gin(0, feature_dim=1, hidden=4, depth=2, eta=1.0)
    g = P2
    rep = stability_report(m, [(g, g)], cfg(2))
    assert list(rep.ratios) == [0.0]
    assert rep.max_ratio == 0.0
    assert rep.violations == 0
    with pytest.raises(ConfigError):
        stability_report(m, [(g, g)], cfg(3))  # depth must be mp layers + 1


def test_stability_counterexample_pair_is_finite():
    g1, g2 = wl_counterexample_pair()
    m = identity_gin(feature_dim=1)
    rep = stability_report(m, [(g1, g2)], cfg(2))
    assert rep.infinite == 0
    assert 0.0 < rep.max_ratio < math.inf
    payload = json.loads(rep.to_json())
    assert set(payload) == {"max_ratio", "violations", "pairs", "preset"}


def test_abs_clipped_loss():
    assert abs_clipped_loss(np.array([3.0]), 1.0) == 2.0
    assert abs_clipped_loss(np.array([100.0]), 1.0) == 10.0
    assert abs_clipped_loss(np.array([1.0]), 1.0, clip=0.5) == 0.0
    with pytest.raises(ConfigError):
        abs_clipped_loss(np.array([1.0, 2.0]), 1.0)


def _tiny_setup(seed=0, n=12):
    ds = clustered_dataset(n, 3, seed=seed)
    labels = [float(g.label) for g in ds.graphs]
    c = TmdConfig(depth=3, weights=const_weights(1.0))
    dm = pairwise_matrix(ds, c)
    return ds, labels, c, dm


def test_finite_erm_single_hypothesis_is_trivially_satisfied():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    h = [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)]
    rep = finite_erm_check(ds, labels, h, selection=sel, distances=dm)
    assert rep.erm_index == 0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.satisfied
    assert rep.chain_ok


def test_finite_erm_epsilon_zero_collapses_bound():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, len(ds))  # every graph is its own medoid
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(4)]
    rep = finite_erm_check(ds, labels, hyps, selection=sel, distances=dm)
    assert rep.epsilon == 0.0
    assert rep.bound_rhs == 0.0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.chain_max_excess <= 1e-9


def test_finite_erm_node_mode_full_fraction_is_exact():
    ds, labels, c, dm = _tiny_setup()
    subs = subsample_dataset(ds, 1.0, c)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(3)]
    rep = finite_erm_check(ds, labels, hyps, subsamples=subs)
    assert rep.mode == "nodes"
    assert rep.epsilon == 0.0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.chain_ok


def test_finite_erm_node_mode_builds_each_subgraph_once(monkeypatch):
    import treesample.gnn as gnn
    rng = np.random.default_rng(12)
    ds = make_dataset([random_graph(rng, n_max=6, n_min=2) for _ in range(5)])
    subs = subsample_dataset(ds, 0.5, cfg(2), seed=0)
    hyps = [random_gin(s, ds.feature_dim, 4, 2) for s in range(3)]
    before = finite_erm_check(ds, [0.0] * 5, hyps, subsamples=subs)
    built = []

    def counting(g, nodes):
        built.append(tuple(nodes))
        return induced_subgraph(g, nodes)

    monkeypatch.setattr(gnn, "induced_subgraph", counting)
    after = finite_erm_check(ds, [0.0] * 5, hyps, subsamples=subs)
    assert built == [s.kept for s in subs]
    assert after.to_json() == before.to_json()


def test_finite_erm_grows_no_worse_with_more_hypotheses():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(6)]
    prev = math.inf
    for m in range(1, 7):
        rep = finite_erm_check(ds, labels, hyps[:m], selection=sel, distances=dm)
        assert rep.min_loss_full <= prev + 1e-15
        prev = rep.min_loss_full


def test_finite_erm_validates_inputs():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    with pytest.raises(ConfigError):
        finite_erm_check(ds, labels, [], selection=sel, distances=dm)
    with pytest.raises(ConfigError):
        finite_erm_check(ds, labels[:-1],
                         [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                         selection=sel, distances=dm)


def test_erm_report_json_fields():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    rep = finite_erm_check(ds, labels,
                           [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                           selection=sel, distances=dm)
    payload = json.loads(rep.to_json())
    assert {"mode", "loss_full_of_erm", "min_loss_full", "bound_rhs", "epsilon",
            "M", "satisfied", "chain_ok", "chain_max_excess",
            "erm_index"} <= set(payload)
