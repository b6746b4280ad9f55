"""``verify --mode erm-*`` sweeps its presets sharing every preset-independent
quantity, and reports exactly what one pipeline per preset reports."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest

import treesample.cli as cli
import treesample.gnn as gnn
import treesample.node_select as node_select
from treesample import (ConfigError, DistanceMatrix, GinLayer, GinModel, Graph,
                        finite_erm_sweep, induced_subgraph, kmedoids, make_dataset,
                        pairwise_matrix, random_gin, subsample_dataset, subsample_sweep,
                        synthetic_dataset)
from treesample.cli import _sweep_configs, _verify_erm, build_parser
from treesample.synth import random_graph

from helpers import (cfg, medoid_plan, reference_finite_erm_check,
                     reference_verify_erm_payload, subgraph_plan)


def _nodes_dataset(seed, count=12):
    """Labelled G(n, 4 / (n - 1)) graphs of 40-90 nodes with 3-d features,
    drawn as the ``nodes`` benchmark workload draws them."""
    rng = np.random.default_rng([seed, 40, 90])
    sizes = [40 + (i * 51) // count for i in range(count)]
    return make_dataset([random_graph(rng, n, 4.0 / (n - 1), feature_dim=3,
                                      label=int(rng.integers(2))) for n in sizes])


def _args(mode, *extra):
    return build_parser().parse_args(["verify", "--mode", mode, "--depth", "3", *extra])


def _distinct_kept(ds, args):
    sweep = subsample_sweep(ds, args.frac, _sweep_configs(args), seed=args.seed)
    return {(s.graph_id, s.kept) for subs in sweep for s in subs}


def _one_node_dataset():
    """Labelled graphs of 1-9 nodes, four of them single nodes: at --frac
    0.2 most subgraphs are 1- or 2-node graphs, whose GIN forwards run
    one-row matrix products."""
    rng = np.random.default_rng(11)
    return make_dataset([random_graph(rng, n, 0.5, feature_dim=3,
                                      label=int(rng.integers(2)))
                         for n in (1, 4, 1, 9, 2, 1, 6, 1, 3)])


# case: (dataset, extra argv); "0" and "2" are nodes-workload seeds at the
# default --hidden 8.  The other widths and the 1-node graphs give one-row
# products and shapes at which a BLAS product row may depend on the rows
# computed with it, so forwards batched across graphs cannot change these
# bytes silently.
PAYLOAD_CASES = {
    "0": (lambda: _nodes_dataset(0), []),
    "2": (lambda: _nodes_dataset(2), []),
    "hidden-1": (lambda: _nodes_dataset(2), ["--hidden", "1"]),
    "hidden-12": (lambda: _nodes_dataset(2), ["--hidden", "12"]),
    "hidden-64": (lambda: _nodes_dataset(0), ["--hidden", "64"]),
    "one-node-graphs": (_one_node_dataset, ["--frac", "0.2"]),
}


@pytest.mark.parametrize("case", list(PAYLOAD_CASES))
def test_verify_erm_nodes_payload_matches_one_pipeline_per_preset(case):
    make, extra = PAYLOAD_CASES[case]
    ds = make()
    args = _args("erm-nodes", "--hypotheses", "20", "--frac", "0.5", *extra)
    if case in ("0", "2"):
        # seed 2 has graphs whose presets keep different nodes; seed 0 has none
        assert (len(_distinct_kept(ds, args)) > len(ds)) == (case == "2")
    payload, _, _ = _verify_erm(args, ds, "erm-nodes")
    want = reference_verify_erm_payload(args, ds, "erm-nodes")
    assert json.dumps(payload, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_verify_erm_graphs_payload_matches_one_pipeline_per_preset():
    args = _args("erm-graphs", "--synthetic", "12", "--hypotheses", "8", "--k", "4")
    ds = synthetic_dataset(args.synthetic, args.seed)
    payload, _, _ = _verify_erm(args, ds, "erm-graphs")
    want = reference_verify_erm_payload(args, ds, "erm-graphs")
    assert json.dumps(payload, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_subsample_sweep_matches_subsample_dataset_per_config():
    ds = _nodes_dataset(4, count=5)
    cfgs = [cfg(2, w) for w in (0.5, 2.0)] + [cfg(3, 1.0, "l1")]
    got = subsample_sweep(ds, 0.4, cfgs, seed=7)
    assert got == [subsample_dataset(ds, 0.4, c, seed=7) for c in cfgs]
    assert subsample_sweep(ds, 0.4, [], seed=7) == []
    with pytest.raises(ConfigError, match="frac must be in"):
        subsample_sweep(ds, 1.5, cfgs)
    # True ran as 1.0, and a string or None raised a bare TypeError
    for frac in (True, "0.5", None):
        with pytest.raises(ConfigError,
                           match=re.escape(f"frac must be a finite real number, got {frac!r}")):
            subsample_sweep(ds, frac, cfgs)
    assert subsample_sweep(ds, np.float64(0.4), cfgs, seed=7) == got


def test_verify_erm_nodes_does_preset_independent_work_once(monkeypatch):
    ds = _nodes_dataset(2, count=6)
    hyps = 5
    args = _args("erm-nodes", "--hypotheses", str(hyps), "--frac", "0.5")
    distinct = _distinct_kept(ds, args)
    subgraphs = {induced_subgraph(ds[i], kept) for i, kept in distinct}
    calls, built = Counter(), []

    def count(module, name):
        original = getattr(module, name)

        def counting(*a, **k):
            calls[name] += 1
            return original(*a, **k)
        monkeypatch.setattr(module, name, counting)

    count(node_select, "build_candidates")
    count(node_select, "select_subsets")
    count(gnn, "layer_lipschitz")
    count(gnn, "_bank_forward")
    build = cli.induced_subgraph

    def building(g, kept):
        built.append((ds.graphs.index(g), kept))
        return build(g, kept)
    monkeypatch.setattr(cli, "induced_subgraph", building)
    _verify_erm(args, ds, "erm-nodes")
    n = len(ds)
    assert n < len(distinct) < 4 * n
    assert sorted(built) == sorted(distinct)  # each distinct subgraph built once
    # one stacked forward per graph serves every hypothesis, and each distinct
    # stand-in that is no dataset graph is forwarded once
    assert calls == {"build_candidates": n, "select_subsets": n, "layer_lipschitz": hyps,
                     "_bank_forward": n + len(subgraphs - set(ds))}
    assert calls["_bank_forward"] <= n + len(distinct)


def test_finite_erm_sweep_densifies_each_distance_matrix_once(monkeypatch):
    ds = synthetic_dataset(10, 1)
    hyps = [random_gin(s, ds.feature_dim, 4, 3) for s in range(3)]
    dms = [pairwise_matrix(ds, cfg(3, w)) for w in (0.5, 1.0, 2.0)]
    selections = [(kmedoids(dm, 3), dm) for dm in dms]
    calls = Counter()
    full = DistanceMatrix.full

    def counting(self):
        calls[self.weight_preset] += 1
        return full(self)
    monkeypatch.setattr(DistanceMatrix, "full", counting)
    # the plans' nearest medoids densify each matrix once; the sweep reads none
    finite_erm_sweep(ds, hyps, (medoid_plan(ds, sel, dm) for sel, dm in selections))
    assert calls == {dm.weight_preset: 1 for dm in dms}
    # verify adds kmedoids' own densification: two per preset in all
    calls.clear()
    args = _args("erm-graphs", "--synthetic", "10", "--hypotheses", "3", "--k", "3")
    _verify_erm(args, synthetic_dataset(args.synthetic, args.seed), "erm-graphs")
    assert calls == {c.weights.spec_string(): 2 for c in _sweep_configs(args)}


def test_finite_erm_sweep_entries_match_finite_erm_check():
    ds = synthetic_dataset(10, 1)
    labels = [g.label for g in ds]
    hyps = [random_gin(s, ds.feature_dim, 4, 3) for s in range(4)]
    dms = [pairwise_matrix(ds, cfg(3, w)) for w in (0.5, 2.0)]
    selections = [(kmedoids(dm, 3), dm) for dm in dms]
    got = finite_erm_sweep(ds, hyps, (medoid_plan(ds, s, dm) for s, dm in selections))
    assert [r.to_json() for r in got] == [
        reference_finite_erm_check(ds, labels, hyps, selection=s, distances=dm).to_json()
        for s, dm in selections]
    subsample_sets = [subsample_dataset(ds, f, cfg(3)) for f in (0.3, 0.6, 1.0)]
    got = finite_erm_sweep(ds, hyps, [subgraph_plan(ds, s) for s in subsample_sets])
    assert [r.to_json() for r in got] == [
        reference_finite_erm_check(ds, labels, hyps, subsamples=s).to_json()
        for s in subsample_sets]


def _erm_error_cases():
    """(message, ds, hypotheses, plan) for each refusal."""
    ds = synthetic_dataset(6, 0)
    epsilon, stand_ins = subgraph_plan(ds, subsample_dataset(ds, 0.5, cfg(2)))
    h = [random_gin(0, ds.feature_dim, 4, 2)]
    wide = GinModel((*h[0].mp_layers, GinLayer(np.ones((4, 2)), np.zeros(2))))
    unlabeled = [Graph(g.node_count, g.edges, g.features) for g in ds]
    half = [*stand_ins[:2], unlabeled[2], *stand_ins[3:]]
    refused = "epsilon must be a finite real number, got "
    return [
        ("dataset is empty", make_dataset([]), h, (0.0, [])),
        ("hypothesis set is empty", ds, [], (epsilon, stand_ins)),
        ("loss needs a scalar readout, got shape (2,)", ds, [*h, wide], (epsilon, stand_ins)),
        ("5 stand-ins for 6 graphs", ds, h, (epsilon, stand_ins[:-1])),
        ("graph 0 has no label", make_dataset(unlabeled), h, (epsilon, unlabeled)),
        ("stand-in 2 has no label", ds, h, (epsilon, half)),
        ("epsilon must not be negative, got -0.5", ds, h, (-0.5, stand_ins)),
        (refused + "nan", ds, h, (math.nan, stand_ins)),
        (refused + "inf", ds, h, (math.inf, stand_ins)),
        (refused + "True", ds, h, (True, stand_ins)),
        (refused + "'0.1'", ds, h, ("0.1", stand_ins)),
        (refused + "None", ds, h, (None, stand_ins)),
    ]


@pytest.mark.parametrize("case", range(12))
def test_finite_erm_check_and_sweep_keep_their_error_messages(case):
    message, ds, hypotheses, plan = _erm_error_cases()[case]
    with pytest.raises(ConfigError) as sweep_err:
        finite_erm_sweep(ds, hypotheses, [plan])
    assert str(sweep_err.value) == message


def test_finite_erm_sweep_checks_every_entry():
    ds = synthetic_dataset(6, 0)
    dm = pairwise_matrix(ds, cfg(2))
    plan = medoid_plan(ds, kmedoids(dm, 2), dm)
    subs = subsample_dataset(ds, 0.5, cfg(2))
    h = [random_gin(0, ds.feature_dim, 4, 2)]
    with pytest.raises(ConfigError, match="^epsilon must not be negative, got -1.0$"):
        finite_erm_sweep(ds, h, [plan, (-1.0, plan[1])])
    with pytest.raises(ConfigError, match="^3 stand-ins for 6 graphs$"):
        finite_erm_sweep(ds, h, [subgraph_plan(ds, subs), subgraph_plan(ds, subs[:3])])
    assert finite_erm_sweep(ds, h, []) == []


def test_finite_erm_sweep_forwards_no_signed_zero_twin_of_a_dataset_graph(monkeypatch):
    # the twin equals ds[0] (0.0 == -0.0), so it hashes equal and reads
    # ds[0]'s full-data readout
    ds = make_dataset([Graph(3, [(0, 1), (1, 2)], [[0.0, 1.0, 0.0], [1.0, 2.0, 0.5],
                                                   [0.0, 0.0, 0.0]], label=0),
                       Graph(2, [(0, 1)], [[1.0, 0.0, 2.0], [0.5, 1.5, 1.0]], label=1)])
    f = ds[0].features
    twin = Graph(3, ds[0].edges, np.where(f == 0.0, -0.0, f), label=0)
    assert twin == ds[0] and twin is not ds[0]
    hyps = [random_gin(s, ds.feature_dim, 4, 2) for s in range(2)]
    calls = Counter()
    forward = gnn._bank_forward

    def counting(bank, g):
        calls[g is twin] += 1
        return forward(bank, g)
    monkeypatch.setattr(gnn, "_bank_forward", counting)
    [got] = finite_erm_sweep(ds, hyps, [(0.1, [twin, ds[1]])])
    assert calls == {False: len(ds)}  # one stacked forward per dataset graph
    assert got == finite_erm_sweep(ds, hyps, [(0.1, list(ds))])[0]
