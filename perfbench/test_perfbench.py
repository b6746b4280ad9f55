"""Tests of the benchmark's own arithmetic: self times, per-layer sums and the
classification of command outcomes.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import types

import numpy as np
import pytest

import run
from speed import SpeedProbe
from tracer import Tracer, layer_metrics, self_times


def spans(rows, names):
    """rows: (parent, name, start, end, amount) tuples -> Tracer.arrays() layout."""
    parent, name, start, end, amount = (np.array(col) for col in zip(*rows))
    return {"parent": parent.astype(np.int64), "name": np.array([names.index(n) for n in name]),
            "start": start.astype(float), "end": end.astype(float),
            "amount": amount.astype(float), "amount2": np.zeros(len(rows)),
            "request": np.zeros(len(rows), dtype=np.int32)}


def test_self_time_subtracts_direct_children_only():
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 2.0, 4.0, 1.0])  # root > (a, b > c)
    assert self_times(parent, duration).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_self_times_of_a_tree_sum_to_the_root_duration():
    t = Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = t.wrap("x.leaf", leaf)
    root = t.wrap("x.root", t.wrap("x.middle", middle))
    root()
    arr = t.arrays()
    assert arr["parent"].tolist() == [-1, 0, 1, 1]
    duration = arr["end"] - arr["start"]
    assert self_times(arr["parent"], duration).sum() == pytest.approx(duration[0], rel=1e-12)


def test_layer_metrics_split_tmd_self_time_and_block_sizes():
    names = ["cli.main", "tmd.tmd", "tmd.tmd_cost_matrix", "matching.matching_value"]
    rows = [(-1, "cli.main", 0.0, 10.0, 0),
            (0, "tmd.tmd", 1.0, 9.0, 0),
            (1, "tmd.tmd_cost_matrix", 1.0, 7.0, 0),
            (2, "matching.matching_value", 2.0, 3.0, 4),    # q = 4
            (2, "matching.matching_value", 3.0, 5.0, 9),    # q = 9
            (1, "matching.matching_value", 7.0, 8.5, 20)]   # top level, q = 20
    m = layer_metrics(names, spans(rows, names), 0, len(rows))
    assert m["tmd.pairs"] == 1
    assert m["tmd.cost_matrix_s"] == 6.0
    # tmd: 8 - 6 - 1.5 = 0.5; cost matrix: 6 - 1 - 2 = 3
    assert m["tmd.self_s"] == 3.5
    assert (m["matching.calls.q1-6"], m["matching.calls.q7-12"], m["matching.calls.q13p"]) == (1, 1, 1)
    assert (m["matching.s.q1-6"], m["matching.s.q7-12"], m["matching.s.q13p"]) == (1.0, 2.0, 1.5)
    assert m["cli.self_s"] == 2.0


def test_layer_metrics_only_counts_the_requested_slice():
    names = ["cli.main", "treenorm.tree_norm"]
    rows = [(-1, "cli.main", 0.0, 4.0, 0), (0, "treenorm.tree_norm", 1.0, 2.0, 6),
            (-1, "cli.main", 5.0, 6.0, 0), (2, "treenorm.tree_norm", 5.0, 5.5, 6)]
    m = layer_metrics(names, spans(rows, names), 2, 4)
    assert m["treenorm.calls"] == 1
    assert m["treenorm.edge_levels_per_s"] == 12.0
    assert m["cli.self_s"] == 0.5


def test_uninstall_restores_the_original_function():
    owner = types.SimpleNamespace(fn=lambda: 3)
    original = owner.fn
    t = Tracer()
    t.patch(owner, "fn", "x.fn")
    assert owner.fn is not original and owner.fn() == 3
    t.uninstall()
    assert owner.fn is original
    assert len(t) == 1


@pytest.mark.parametrize("code, failed", [(0, False), (4, False), (1, True), (2, True),
                                          (3, True), (70, True), (5, True)])
def test_exit_status_classification(code, failed):
    assert (run.classify(code) is not None) == failed


def test_uncaught_exception_is_one_failed_operation():
    def crash(argv):
        raise IndexError("deep inside")

    outcome = run.run_cli(crash, [])
    assert outcome.code is None and "IndexError" in outcome.error
    assert run.classify(outcome.code, outcome.error) == "uncaught exception"


def test_failed_or_raising_check_is_a_failure():
    ok = run.Outcome(0, "{}", "", 0.1)
    assert run.check_outcome(types.SimpleNamespace(check=lambda o: None), ok) is None
    assert run.check_outcome(types.SimpleNamespace(check=lambda o: "wrong"), ok) == "wrong"

    def broken(o):
        raise KeyError("checksum")

    assert "KeyError" in run.check_outcome(types.SimpleNamespace(check=broken), ok)
    verdict = run.Outcome(4, "{}", "", 0.1)
    assert run.check_outcome(types.SimpleNamespace(check=lambda o: None), verdict) is None


def test_probe_scale_converts_a_duration_to_reference_speed():
    probe = SpeedProbe("tmd")
    probe.reference_s = 1.0
    # the probe took twice its reference time, so the command counts half
    assert probe.scale(2.0, 2.0) == 0.5
    assert probe.scale(1.0, 3.0) == 0.5
    it = run.Iteration(traced=False)
    it.raw_s, it.wall_s = 4.0, 2.0
    assert it.scale == 0.5
