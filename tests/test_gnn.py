import dataclasses
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import treesample.gnn as gnn
from treesample import (ConfigError, ErmReport, GinLayer, GinModel, Graph,
                        NumericalOverflowError, StabilityReport, TmdConfig, clustered_dataset,
                        const_weights, empty_graph, finite_erm_sweep, gin_forward,
                        identity_gin, kmedoids, layer_lipschitz, make_dataset, pairwise_matrix,
                        random_gin, random_pairs, stability_sweep, subsample_dataset,
                        synthetic_dataset, wl_counterexample_pair)
from treesample.oracles import abs_clipped_loss
from treesample.cli import LAMBDA_SWEEP

from helpers import (cfg, medoid_plan, random_graph, reference_gin_forward,
                     reference_stability_report, relabelled_pair, subgraph_plan)

P2 = Graph(2, [(0, 1)], np.ones((2, 1)))


def test_identity_gin_worked_example():
    m = identity_gin()
    # each node's state is its own feature + 1 * neighbor = 2; the readout sums them
    assert np.array_equal(gin_forward(m, P2), [4.0])


def test_forward_on_empty_graph_is_zero():
    from treesample import empty_graph
    m = identity_gin()
    assert np.array_equal(gin_forward(m, empty_graph(1)), [0.0])


def test_forward_rejects_wrong_feature_dim():
    with pytest.raises(ConfigError, match="model expects feature dim 1, graph has 2"):
        gin_forward(identity_gin(), Graph(2, [(0, 1)], np.ones((2, 2))))


def test_forward_overflow_is_a_numerical_overflow_error():
    # the readout of three nodes at 1e308 passes the float range: the
    # package's overflow rule, not a RuntimeWarning and [inf]
    g = Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1e308))
    with pytest.raises(NumericalOverflowError, match="a GIN readout"):
        gin_forward(identity_gin(), g)


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
    for phi in layer_lipschitz(a):
        assert abs(phi - 1.0) <= 1e-6
    assert all(np.array_equal(l.bias, np.zeros_like(l.bias)) for l in a.layers)


def test_random_gin_depth_one_is_readout_only():
    m = random_gin(0, feature_dim=2, hidden=4, depth=1, eta=1.0)
    assert m.mp_layers == ()
    assert m.out_dim == 1


@pytest.mark.parametrize("sizes, match", [
    ((3, 8, True), "depth must be an integer, got True"),
    ((3, 8, 2.5), "depth must be an integer, got 2.5"),
    ((3, 2.0, 2), "hidden must be an integer, got 2.0"),
    ((3, None, 1), "hidden must be an integer, got None"),
    (("3", 8, 2), "feature_dim must be an integer, got '3'"),
])
def test_random_gin_refuses_a_size_that_is_not_an_integer(sizes, match):
    # depth=True built a readout-only model; 2.5 and 2.0 raised a bare TypeError
    with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
        random_gin(0, *sizes)
    assert random_gin(0, np.int64(3), np.int64(8), np.int64(2)).out_dim == 1


@pytest.mark.parametrize("make, match", [
    (lambda: GinLayer(np.ones((2, 3)), np.zeros(3), "tanh"), "activation must be one of"),
    (lambda: GinLayer(np.ones((2, 3)), np.zeros(2)), r"W\(2, 3\), b\(2,\)"),
    (lambda: GinLayer(np.ones(3), np.zeros(3)), r"W\(3,\), b\(3,\)"),
    (lambda: GinModel(()), "at least a readout layer"),
    (lambda: random_gin(0, feature_dim=2, hidden=4, depth=0), "depth must be >= 1, got 0"),
    # a NaN weight surfaced later as a readout overflow
    (lambda: GinLayer([[math.nan]], [0.0]), "^layer weight holds a non-finite value$"),
    (lambda: GinLayer([[1.0]], [math.inf]), "^layer bias holds a non-finite value$"),
    (lambda: GinLayer([["x"]], [0.0]), "^layer weight is not a numeric array"),
], ids=["activation", "bias-width", "1d-weight", "no-layers", "depth-0", "nan-weight",
        "inf-bias", "str-weight"])
def test_models_refuse_bad_layers_when_built(make, match):
    with pytest.raises(ConfigError, match=match):
        make()


@pytest.mark.parametrize("eta", [True, math.inf, -math.inf, math.nan, np.float64(math.nan),
                                 "1.0", None])
def test_gin_model_refuses_an_eta_that_is_not_a_finite_real_number(eta):
    # True ran as 1.0; inf and NaN surfaced later as a readout overflow
    layer = GinLayer(np.ones((2, 1)), np.zeros(1))
    with pytest.raises(ConfigError, match=f"^eta must be a finite real number, "
                                          f"got {re.escape(repr(eta))}$"):
        GinModel((layer,), eta=eta)
    for make in (lambda: random_gin(0, 2, 4, 2, eta=eta), lambda: identity_gin(eta)):
        with pytest.raises(ConfigError, match="^eta must be a finite real number"):
            make()
    for good in (0.0, -0.5, 2, np.float64(1e300), np.int64(3), Fraction(1, 4)):
        stored = GinModel((layer,), eta=good).eta
        assert type(stored) is float and stored == good


def test_gin_layer_keeps_read_only_float64_copies():
    # a list raised AttributeError, and writing to the caller's array
    # changed the checked layer
    w, b = np.ones((2, 1)), np.zeros(1)
    layer = GinLayer(w, b)
    w[0, 0] = 5.0
    assert layer.weight.tolist() == [[1.0], [1.0]]
    listed = GinLayer([[1]], [0])
    for got in (layer.weight, layer.bias, listed.weight, listed.bias):
        assert got.dtype == np.float64 and not got.flags.writeable


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
    # an empty weight skips the power iteration, and a zero one ends it at its first step
    assert layer_lipschitz(GinModel((GinLayer(np.zeros(shape), np.zeros(2)),))) == (0.0,)


def test_layer_lipschitz_known_spectra():
    assert layer_lipschitz(identity_gin()) == (1.0, 1.0)
    eye = GinLayer(np.eye(3), np.zeros(3), "identity")
    assert layer_lipschitz(GinModel((eye, eye))) == (1.0, 1.0)
    scaled = GinModel((GinLayer(np.diag([2.0, 2.0]), np.zeros(2), "identity"),
                       GinLayer(np.eye(2), np.zeros(2), "identity")))
    assert abs(layer_lipschitz(scaled)[0] - 2.0) < 1e-9


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    from treesample.gnn import GinLayer, GinModel
    for _ in range(10):
        w = rng.standard_normal((4, 4))
        m = GinModel(layers=(GinLayer(w, np.zeros(4), "identity"),), eta=1.0)
        [phi] = layer_lipschitz(m)
        assert abs(phi - np.linalg.svd(w, compute_uv=False)[0]) < 1e-6


def test_layer_lipschitz_is_the_svd_norm_from_below():
    # power iteration approaches a layer's top singular value from below:
    # every layer is within 1e-9 relative of np.linalg.norm(w, 2), and never
    # above it beyond rounding
    for seed, depth in itertools.product(range(20), (2, 3)):
        model = random_gin(seed, feature_dim=3, hidden=8, depth=depth)
        for phi, layer in zip(layer_lipschitz(model), model.layers, strict=True):
            exact = np.linalg.norm(layer.weight, 2)
            assert abs(phi - exact) <= 1e-9 * exact
            assert phi <= exact * (1.0 + 4 * np.finfo(float).eps)


def reference_spectral_norm(w):
    """Power iteration with a fresh seeded start and ``np.linalg.norm``."""
    if w.size == 0:
        return 0.0
    x = np.random.default_rng(0).standard_normal(w.shape[0])
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(gnn._POWER_ITERS):
        y = x @ w
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        x = y @ w.T
        nx = float(np.linalg.norm(x))
        new_sigma = math.sqrt(nx) if nx > 0 else ny
        x = x / nx if nx > 0 else x
        if sigma > 0 and abs(new_sigma - sigma) <= gnn._POWER_TOL * sigma:
            return new_sigma
        sigma = new_sigma
    return sigma


def test_spectral_norm_bit_identical_to_reference():
    for seed, hidden, depth in itertools.product(range(50), (1, 5, 8, 12, 64), range(1, 5)):
        model = random_gin(seed, feature_dim=3, hidden=hidden, depth=depth)
        ref = tuple(reference_spectral_norm(layer.weight) for layer in model.layers)
        assert layer_lipschitz(model) == ref


def test_stability_report_zero_pair_and_depth_guard():
    m = random_gin(0, feature_dim=1, hidden=4, depth=2, eta=1.0)
    [rep] = stability_sweep(m, [P2], [(0, 0)], [cfg(2)])
    assert list(rep.ratios) == [0.0]
    assert rep.max_ratio == 0.0
    assert rep.violations == 0
    with pytest.raises(ConfigError):  # depth must be mp layers + 1 in every config
        stability_sweep(m, [P2], [(0, 0)], [cfg(2), cfg(3)])
    assert stability_sweep(m, [P2], [(0, 0)], []) == []


@pytest.mark.parametrize("pair", [(-1, 0), (6, 0), (1.0, 0)])
def test_stability_sweep_refuses_a_pair_index_outside_the_graphs(monkeypatch, pair):
    # refused before any forward or distance runs; -1 would wrap to the last graph
    def unreachable(*args):
        raise AssertionError("ran before the pair indices were checked")

    monkeypatch.setattr(gnn, "_readouts", unreachable)
    monkeypatch.setattr(gnn, "_distances", unreachable)
    ds = synthetic_dataset(6, 0)
    model = random_gin(0, ds.feature_dim, 4, 2)
    message = (f"pair index must be in 0..5, got {pair[0]}" if type(pair[0]) is int
               else f"pair index must be an integer, got {pair[0]!r}")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        stability_sweep(model, ds.graphs, [(1, 2), pair], [cfg(2)])


@pytest.mark.parametrize("pair", [(1, 2, 3), (1,), 5])
def test_stability_sweep_refuses_a_pair_that_is_not_two_indices(monkeypatch, pair):
    def unreachable(*args):
        raise AssertionError("ran before the pairs were checked")

    monkeypatch.setattr(gnn, "_readouts", unreachable)
    monkeypatch.setattr(gnn, "_distances", unreachable)
    ds = synthetic_dataset(6, 0)
    model = random_gin(0, ds.feature_dim, 4, 2)
    with pytest.raises(ConfigError, match=rf"^a pair must be two graph indices, "
                                          rf"got {re.escape(repr(pair))}$"):
        stability_sweep(model, ds.graphs, [(1, 2), pair], [cfg(2)])


def test_records_hold_only_what_they_measure():
    assert [f.name for f in dataclasses.fields(StabilityReport)] == ["ratios"]
    assert [f.name for f in dataclasses.fields(ErmReport)] == [
        "loss_full_of_erm", "min_loss_full", "bound_rhs", "epsilon", "chain_max_excess",
        "erm_index"]


def test_stability_counterexample_pair_is_finite():
    m = identity_gin()
    [rep] = stability_sweep(m, wl_counterexample_pair(), [(0, 1)], [cfg(2)])
    assert rep.infinite == 0
    assert 0.0 < rep.max_ratio < math.inf
    payload = json.loads(rep.to_json())
    assert set(payload) == {"max_ratio", "violations", "pairs"}


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
            assert got.pairs == want.pairs
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
    c = TmdConfig(depth=3, weights=const_weights(1.0))
    dm = pairwise_matrix(ds, c)
    return ds, c, dm


def test_finite_erm_single_hypothesis_is_trivially_satisfied():
    ds, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    h = [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)]
    rep = finite_erm_sweep(ds, h, [medoid_plan(ds, sel, dm)])[0]
    assert rep.erm_index == 0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.satisfied
    assert rep.chain_ok


def test_finite_erm_epsilon_zero_collapses_bound():
    ds, c, dm = _tiny_setup()
    sel = kmedoids(dm, len(ds))  # every graph is its own medoid
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(4)]
    rep = finite_erm_sweep(ds, hyps, [medoid_plan(ds, sel, dm)])[0]
    assert rep.epsilon == 0.0
    assert rep.bound_rhs == 0.0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.chain_max_excess <= 1e-9


def test_finite_erm_identity_plan_reproduces_the_full_loss():
    # each graph stands in for itself: the subsampled loss is the full loss
    ds, c, dm = _tiny_setup()
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0) for s in range(5)]
    copies = [Graph(g.node_count, g.edges, g.features, g.label) for g in ds]
    for stand_ins in (ds.graphs, copies):
        rep, = finite_erm_sweep(ds, hyps, [(0, stand_ins)])
        assert rep.loss_full_of_erm == rep.min_loss_full
        assert rep.epsilon == 0.0 and rep.bound_rhs == 0.0
        assert rep.chain_max_excess <= 0.0
        assert rep.satisfied and rep.chain_ok


def test_finite_erm_node_mode_full_fraction_is_exact():
    ds, c, dm = _tiny_setup()
    subs = subsample_dataset(ds, 1.0, c)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(3)]
    rep = finite_erm_sweep(ds, hyps, [subgraph_plan(ds, subs)])[0]
    assert rep.epsilon == 0.0
    assert rep.loss_full_of_erm == rep.min_loss_full
    assert rep.chain_ok


def test_finite_erm_forwards_each_distinct_stand_in_once(monkeypatch):
    rng = np.random.default_rng(12)
    ds = make_dataset([Graph(g.node_count, g.edges, g.features, label=i % 2)
                       for i, g in enumerate(random_graph(rng, n_max=6, n_min=2)
                                             for _ in range(5))])
    subs = subsample_dataset(ds, 0.5, cfg(2), seed=0)
    hyps = [random_gin(s, ds.feature_dim, 4, 2) for s in range(3)]
    # a repeated plan, copies of the subgraphs, and the dataset itself
    plan = subgraph_plan(ds, subs)
    plans = [plan, subgraph_plan(ds, subs), (0.0, ds.graphs), plan]
    before = finite_erm_sweep(ds, hyps, plans)
    forwarded, forward = [], gnn._bank_forward

    def counting(bank, g):
        forwarded.append(g)
        return forward(bank, g)

    monkeypatch.setattr(gnn, "_bank_forward", counting)
    after = finite_erm_sweep(ds, hyps, plans)
    new = [g for g in dict.fromkeys(plan[1]) if g not in set(ds)]
    assert new and forwarded == [*ds, *new]
    assert [r.to_json() for r in after] == [r.to_json() for r in before]
    assert after[0].to_json() == after[1].to_json() == after[3].to_json()


def test_finite_erm_grows_no_worse_with_more_hypotheses():
    ds, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    hyps = [random_gin(s, feature_dim=3, hidden=4, depth=3, eta=1.0)
            for s in range(6)]
    prev = math.inf
    for m in range(1, 7):
        rep = finite_erm_sweep(ds, hyps[:m], [medoid_plan(ds, sel, dm)])[0]
        assert rep.min_loss_full <= prev + 1e-15
        prev = rep.min_loss_full


def test_finite_erm_validates_inputs():
    ds, c, dm = _tiny_setup()
    epsilon, stand_ins = medoid_plan(ds, kmedoids(dm, 3), dm)
    with pytest.raises(ConfigError):
        finite_erm_sweep(ds, [], [(epsilon, stand_ins)])
    with pytest.raises(ConfigError):
        finite_erm_sweep(ds, [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                         [(epsilon, stand_ins[:-1])])


def test_erm_report_json_fields():
    ds, c, dm = _tiny_setup()
    sel = kmedoids(dm, 3)
    rep, = finite_erm_sweep(ds, [random_gin(0, feature_dim=3, hidden=4, depth=3, eta=1.0)],
                            [medoid_plan(ds, sel, dm)])
    payload = json.loads(rep.to_json())
    assert set(payload) == {"loss_full_of_erm", "min_loss_full", "bound_rhs", "epsilon",
                            "M", "satisfied", "chain_ok", "chain_max_excess", "erm_index"}
