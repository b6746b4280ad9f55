import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

import treesample.gnn as gnn
from treesample import (ConfigError, GinLayer, GinModel, Graph, NumericalOverflowError,
                        TmdConfig, abs_clipped_loss, clustered_dataset, const_weights,
                        empty_graph, finite_erm_sweep, gin_forward, identity_gin,
                        induced_subgraph, kmedoids, layer_lipschitz,
                        make_dataset, pairwise_matrix,
                        random_gin, random_pairs, stability_sweep,
                        subsample_dataset, wl_counterexample_pair)
from treesample.cli import LAMBDA_SWEEP

from helpers import (cfg, random_graph, reference_gin_forward,
                     reference_stability_report, relabelled_pair)

P2 = Graph(2, [(0, 1)], np.ones((2, 1)))


def test_identity_gin_worked_example():
    m = identity_gin(feature_dim=1)
    # each node's state is its own feature + 1 * neighbor = 2; the readout sums them
    assert np.array_equal(gin_forward(m, P2), [4.0])


def test_forward_on_empty_graph_is_zero():
    from treesample import empty_graph
    m = identity_gin(feature_dim=1)
    assert np.array_equal(gin_forward(m, empty_graph(1)), [0.0])


def test_forward_rejects_wrong_feature_dim():
    m = identity_gin(feature_dim=2)
    with pytest.raises(ConfigError):
        gin_forward(m, P2)


def test_forward_overflow_is_a_numerical_overflow_error():
    # the readout of three nodes at 1e308 passes the float range: the
    # package's overflow rule, not a RuntimeWarning and [inf]
    g = Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1e308))
    with pytest.raises(NumericalOverflowError, match="a GIN readout"):
        gin_forward(identity_gin(1), g)


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


def test_gin_forward_bit_identical_to_add_at_loop():
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
        got = gin_forward(m, g)
        assert got.tobytes() == reference_gin_forward(m, g).tobytes()


def _forward_grid_graphs():
    """The ``nodes`` benchmark's graph shape (40-90 nodes, mean degree 4,
    3 features) plus the edge cases of a forward."""
    rng = np.random.default_rng(31)
    graphs = [random_graph(rng, n_min=n, n_max=n, feature_dim=3, p=4.0 / (n - 1))
              for n in (40, 65, 90)]
    graphs += [random_graph(rng, n_min=n, n_max=n, feature_dim=3, p=p)
               for n, p in ((1, 0.0), (6, 0.0), (7, 1.0), (30, 0.2), (60, 0.07))]
    return graphs + [empty_graph(3)]


def _with_activation(m, act, rng):
    """``m`` with every layer's activation set to ``act`` and, for identity,
    nonzero biases (random_gin's are zero)."""
    if act == "relu":
        return m
    return GinModel(tuple(GinLayer(x.weight, rng.standard_normal(x.bias.shape), act)
                          for x in m.layers), eta=m.eta)


def test_readouts_bit_identical_to_one_model_forwards():
    # one stacked forward per graph for the whole bank, byte for byte the
    # per-model reference, on every shape a product can take
    graphs = _forward_grid_graphs()
    rng = np.random.default_rng(7)
    grid = itertools.product((1, 2, 8, 12, 64), (1, 2, 3, 4), (1.0, 0.37), ("relu", "identity"))
    for hidden, depth, eta, act in grid:
        bank = [_with_activation(random_gin(s, 3, hidden, depth, eta=eta), act, rng)
                for s in range(3)]
        want = np.array([[reference_gin_forward(h, g) for g in graphs] for h in bank])
        assert gnn._readouts(bank, graphs).tobytes() == want.tobytes(), (hidden, depth, eta, act)
    # a bank of interleaved signatures is grouped, and its rows keep model order
    signatures = [(1, 1, 1.0, "relu"), (8, 3, 0.37, "identity"), (64, 2, 1.0, "relu"),
                  (12, 4, 1.0, "identity")]
    mixed = [_with_activation(random_gin(s, 3, hidden, depth, eta=eta), act, rng)
             for s, (hidden, depth, eta, act) in enumerate(signatures * 3)]
    want = np.array([[reference_gin_forward(h, g) for g in graphs] for h in mixed])
    assert gnn._readouts(mixed, graphs).tobytes() == want.tobytes()
    assert [gin_forward(h, graphs[0]).tobytes() for h in mixed] == \
        [w.tobytes() for w in want[:, 0]]
    wide = GinModel((*mixed[1].mp_layers, GinLayer(np.ones((8, 2)), np.zeros(2))))
    with pytest.raises(ConfigError, match="models disagree on the readout width"):
        gnn._readouts([mixed[1], wide], graphs)


def test_random_gin_is_seeded_and_unit_norm():
    a = random_gin(4, feature_dim=3, hidden=5, depth=3, eta=1.0)
    b = random_gin(4, feature_dim=3, hidden=5, depth=3, eta=1.0)
    assert all(np.array_equal(x.weight, y.weight)
               for x, y in zip(a.layers, b.layers))
    prof = layer_lipschitz(a)
    assert all(prof.converged)
    for phi in prof.per_layer:
        assert abs(phi - 1.0) <= 1e-6
    assert all(np.array_equal(l.bias, np.zeros_like(l.bias)) for l in a.layers)


def test_random_gin_depth_one_is_readout_only():
    m = random_gin(0, feature_dim=2, hidden=4, depth=1, eta=1.0)
    assert m.mp_layers == ()
    assert m.out_dim == 1


@pytest.mark.parametrize("make, match", [
    (lambda: GinLayer(np.ones((2, 3)), np.zeros(3), "tanh"), "activation must be one of"),
    (lambda: GinLayer(np.ones((2, 3)), np.zeros(2)), r"W\(2, 3\), b\(2,\)"),
    (lambda: GinLayer(np.ones(3), np.zeros(3)), r"W\(3,\), b\(3,\)"),
    (lambda: GinModel(()), "at least a readout layer"),
    (lambda: random_gin(0, feature_dim=2, hidden=4, depth=0), "depth must be >= 1, got 0"),
], ids=["activation", "bias-width", "1d-weight", "no-layers", "depth-0"])
def test_models_refuse_bad_layers_when_built(make, match):
    with pytest.raises(ConfigError, match=match):
        make()


@pytest.mark.parametrize("make", [
    lambda: GinLayer(np.ones((2, 3)), np.zeros(3)),
    lambda: GinModel((GinLayer(np.ones((2, 1)), np.zeros(1)),), eta=0.5),
], ids=["layer", "model"])
def test_layers_and_models_compare_and_hash_by_identity(make):
    # array fields make field-wise == ambiguous, and unhashable
    a, twin = make(), make()
    assert a == a
    assert (a == twin) is False
    assert len({a, twin}) == 2


@pytest.mark.parametrize("shape", [(0, 2), (3, 2)], ids=["empty", "zero"])
def test_layer_lipschitz_of_a_null_weight_is_zero_and_converged(shape):
    prof = layer_lipschitz(GinModel((GinLayer(np.zeros(shape), np.zeros(2)),)))
    assert (prof.per_layer, prof.converged) == ((0.0,), (True,))


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
    [rep] = stability_sweep(m, [P2], [(0, 0)], [cfg(2)])
    assert list(rep.ratios) == [0.0]
    assert rep.max_ratio == 0.0
    assert rep.violations == 0
    with pytest.raises(ConfigError):  # depth must be mp layers + 1 in every config
        stability_sweep(m, [P2], [(0, 0)], [cfg(2), cfg(3)])
    assert stability_sweep(m, [P2], [(0, 0)], []) == []


def test_stability_counterexample_pair_is_finite():
    m = identity_gin(feature_dim=1)
    [rep] = stability_sweep(m, wl_counterexample_pair(), [(0, 1)], [cfg(2)])
    assert rep.infinite == 0
    assert 0.0 < rep.max_ratio < math.inf
    payload = json.loads(rep.to_json())
    assert set(payload) == {"max_ratio", "violations", "pairs", "preset"}


def test_stability_zero_distance_gap_within_rounding_scores_zero(monkeypatch):
    # the relabelled copy is at distance 0, and its readout differs from the
    # original's in the last bits only: the node sums add in another order
    pair = relabelled_pair(1)
    model = random_gin(0, 2, 8, 3)
    ra, rb = gnn._readouts([model], pair)[0]
    assert 0.0 < np.linalg.norm(ra - rb) <= 1e-9 * max(np.linalg.norm(ra), np.linalg.norm(rb))
    cfgs = [cfg(3, lam) for lam in LAMBDA_SWEEP]
    for got, c in zip(stability_sweep(model, pair, [(0, 1), (1, 0)], cfgs), cfgs, strict=True):
        want = reference_stability_report(model, [tuple(pair), tuple(pair[::-1])], c)
        assert got.ratios == want.ratios == [0.0, 0.0]
    # a gap past the rounding slack breaks the invariant: infinite, and null
    # in JSON, which has no infinity
    monkeypatch.setattr(gnn, "_distances", lambda graphs, pairs, c: [0.0] * len(pairs))
    no_edges = Graph(8, [], pair[0].features)
    [rep] = stability_sweep(model, [pair[0], no_edges], [(0, 1), (0, 0)], [cfg(3)])
    assert rep.ratios == [math.inf, 0.0]
    assert (rep.pairs, rep.infinite, rep.violations, rep.max_ratio) == (2, 1, 1, math.inf)
    assert json.loads(rep.to_json())["max_ratio"] is None


def test_stability_report_matches_one_tmd_per_pair_bit_for_bit():
    # one sweep (one distance-kernel call per preset) against a tmd call per
    # pair, under every preset the CLI sweeps; the pairs repeat graphs, pair
    # graphs with themselves, hold 0-node graphs, and every other graph of
    # the second dataset has integer features, so the solver meets exact ties
    ds = clustered_dataset(12, 4, seed=3)
    rng = np.random.default_rng(61)
    tied = [Graph(g.node_count, g.edges, np.round(g.features) if i % 2 else g.features)
            for i, g in enumerate(random_graph(rng, n_max=9, feature_dim=3, p=0.4)
                                  for _ in range(6))]
    graphs = [*ds, empty_graph(3), *tied]
    empty, t = len(ds), len(ds) + 1  # the index of the empty graph and of tied[0]
    pairs = [*random_pairs(ds, 40, 5), (0, 0), (0, 1), (1, 0),
             (2, empty), (empty, 3), (empty, empty),
             *itertools.combinations(range(t, t + len(tied)), 2), (t + 1, t + 1)]
    graph_pairs = [(graphs[i], graphs[j]) for i, j in pairs]
    for seed, depth, norm in ((0, 3, "l2"), (1, 2, "l1"), (2, 4, "l2")):
        model = random_gin(seed, 3, 8, depth, eta=0.7)
        cfgs = [TmdConfig(depth=depth, weights=const_weights(lam * 0.7), feature_norm=norm)
                for lam in LAMBDA_SWEEP]
        for got, c in zip(stability_sweep(model, graphs, pairs, cfgs), cfgs, strict=True):
            want = reference_stability_report(model, graph_pairs, c)
            assert (got.preset, got.pairs) == (want.preset, want.pairs)
            assert np.array(got.ratios).tobytes() == np.array(want.ratios).tobytes()
            assert np.float64(got.max_ratio).tobytes() == np.float64(want.max_ratio).tobytes()
            assert (got.violations, got.infinite) == (want.violations, want.infinite)


def test_stability_sweep_does_preset_independent_work_once(monkeypatch):
    ds = clustered_dataset(12, 4, seed=1)
    pairs = [(0, 1), (1, 0), (2, 2), (3, 7), (7, 3), (0, 7)]
    distinct = {i for pair in pairs for i in pair}
    model = random_gin(0, 3, 8, 3)
    cfgs = [cfg(3, lam) for lam in LAMBDA_SWEEP]
    calls = Counter()

    def count(name):
        original = getattr(gnn, name)

        def counting(*a, **k):
            calls[name] += 1
            return original(*a, **k)
        monkeypatch.setattr(gnn, name, counting)

    for name in ("layer_lipschitz", "_readouts", "_bank_forward", "_distances"):
        count(name)
    reports = stability_sweep(model, ds.graphs, pairs, cfgs)
    assert [r.pairs for r in reports] == [len(pairs)] * len(cfgs)
    assert calls == {"layer_lipschitz": 1, "_readouts": 1, "_bank_forward": len(distinct),
                     "_distances": len(cfgs)}


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
