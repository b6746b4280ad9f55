"""Every benchmark workload still runs and checks out against this tree.

Each workload runs for half a second at seed 0, so its output checks and
its pinned seed-0 digest (``perfbench/digests.json``) are evaluated; a name
the benchmark imports from the package, or a moved digest, fails here.  Two
traced runs check that the tracer still sees the layers they exercise.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_all_four_workloads_are_found():
    assert WORKLOADS == ["dist-sparse", "dist-dense", "medoids", "nodes"]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_at_seed_0(workload):
    _run(workload, 0)


# a renamed function or a changed signature that the tracer's wrappers no
# longer match reads 0 in these per-layer metrics instead of failing
@pytest.mark.parametrize("workload, metric", [("medoids", "graph_select.exchanges"),
                                              ("dist-sparse", "tmd.pairs")])
def test_traced_run_counts_its_layer(workload, metric):
    assert _run(workload, 1)["metrics"][metric]["value"] > 0
