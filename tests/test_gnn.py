import itertools
import json
import math

import numpy as np
import pytest

from treesample import (ConfigError, DatasetError, GinLayer, GinModel, Graph,
                        TmdConfig, abs_clipped_loss, clustered_dataset, const_weights,
                        empty_graph, finite_erm_sweep, gin_forward, identity_gin,
                        induced_subgraph, kmedoids, layer_lipschitz,
                        make_dataset, node_embeddings, pairwise_matrix,
                        random_gin, random_pairs, stability_report,
                        subsample_dataset, wl_counterexample_pair)
from treesample.cli import LAMBDA_SWEEP

from helpers import (cfg, random_graph, reference_node_embeddings,
                     reference_stability_report)

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


def test_node_embeddings_bit_identical_to_add_at_loop():
    # bits, not a tolerance: (higher) + (lower) neighbour sums would pass
    # every tolerance-based check yet change the outputs
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(40, 91)) if trial % 3 else int(rng.integers(0, 6))
        g = random_graph(rng, n_max=n, n_min=n, feature_dim=3, p=4.0 / max(1, n - 1))
        m = random_gin(trial, feature_dim=3, hidden=int(rng.integers(1, 9)),
                       depth=int(rng.integers(1, 5)), eta=float(rng.uniform(0.2, 2.0)))
        if trial % 2:  # no relu to hide the low bits of negative sums
            m = GinModel(tuple(GinLayer(x.weight, x.bias, "identity") for x in m.layers),
                         eta=m.eta)
        got = node_embeddings(m, g)
        assert got.tobytes() == reference_node_embeddings(m, g).tobytes()


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


def test_stability_report_matches_one_tmd_per_pair_bit_for_bit():
    # one batched distance call against a tmd call per pair, under every
    # preset the CLI sweeps; the pairs repeat graphs, pair graphs with
    # themselves, hold 0-node graphs, and every other graph of the second
    # dataset has integer features, so the solver meets exact ties
    ds = clustered_dataset(12, 4, seed=3)
    rng = np.random.default_rng(61)
    tied = [Graph(g.node_count, g.edges, np.round(g.features) if i % 2 else g.features)
            for i, g in enumerate(random_graph(rng, n_max=9, feature_dim=3, p=0.4)
                                  for _ in range(6))]
    empty = empty_graph(3)
    pairs = [*random_pairs(ds, 40, 5), (ds[0], ds[0]), (ds[0], ds[1]), (ds[1], ds[0]),
             (ds[2], empty), (empty, ds[3]), (empty, empty),
             *itertools.combinations(tied, 2), (tied[1], tied[1])]
    for seed, depth, norm in ((0, 3, "l2"), (1, 2, "l1"), (2, 4, "l2")):
        model = random_gin(seed, 3, 8, depth, eta=0.7)
        for lam in LAMBDA_SWEEP:
            c = TmdConfig(depth=depth, weights=const_weights(lam * 0.7), feature_norm=norm)
            got = stability_report(model, pairs, c)
            want = reference_stability_report(model, pairs, c)
            assert (got.preset, got.pairs) == (want.preset, want.pairs)
            assert np.array(got.ratios).tobytes() == np.array(want.ratios).tobytes()
            assert np.float64(got.max_ratio).tobytes() == np.float64(want.max_ratio).tobytes()
            assert (got.violations, got.infinite) == (want.violations, want.infinite)


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
    rep = finite_erm_sweep(ds, labels, h, selections=[(sel, dm)])[0]
    assert rep.erm_index == 0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.satisfied
    assert rep.chain_ok


def test_finite_erm_epsilon_zero_collapses_bound():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, len(ds))  # every graph is its own medoid
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(4)]
    rep = finite_erm_sweep(ds, labels, hyps, selections=[(sel, dm)])[0]
    assert rep.epsilon == 0.0
    assert rep.bound_rhs == 0.0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.chain_max_excess <= 1e-9


def test_finite_erm_node_mode_full_fraction_is_exact():
    ds, labels, c, dm = _tiny_setup()
    subs = subsample_dataset(ds, 1.0, c)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(3)]
    rep = finite_erm_sweep(ds, labels, hyps, subsample_sets=[subs])[0]
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
    before = finite_erm_sweep(ds, [0.0] * 5, hyps, subsample_sets=[subs])[0]
    built = []

    def counting(g, nodes):
        built.append(tuple(nodes))
        return induced_subgraph(g, nodes)

    monkeypatch.setattr(gnn, "induced_subgraph", counting)
    after = finite_erm_sweep(ds, [0.0] * 5, hyps, subsample_sets=[subs])[0]
    assert built == [s.kept for s in subs]
    assert after.to_json() == before.to_json()


def test_finite_erm_grows_no_worse_with_more_hypotheses():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(6)]
    prev = math.inf
    for m in range(1, 7):
        rep = finite_erm_sweep(ds, labels, hyps[:m], selections=[(sel, dm)])[0]
        assert rep.min_loss_full <= prev + 1e-15
        prev = rep.min_loss_full


def test_finite_erm_validates_inputs():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    with pytest.raises(ConfigError):
        finite_erm_sweep(ds, labels, [], selections=[(sel, dm)])
    with pytest.raises(ConfigError):
        finite_erm_sweep(ds, labels[:-1],
                         [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                         selections=[(sel, dm)])


def test_erm_report_json_fields():
    ds, labels, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    rep, = finite_erm_sweep(ds, labels,
                            [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                            selections=[(sel, dm)])
    payload = json.loads(rep.to_json())
    assert {"mode", "loss_full_of_erm", "min_loss_full", "bound_rhs", "epsilon",
            "M", "satisfied", "chain_ok", "chain_max_excess",
            "erm_index"} <= set(payload)
