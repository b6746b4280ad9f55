"""Every benchmark workload still runs and checks out against this tree.

Each workload runs for half a second at seed 0, so its output checks and
its pinned seed-0 digest (``perfbench/digests.json``) are evaluated; a name
the benchmark imports from the package, or a moved digest, fails here.
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_at_seed_0(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
