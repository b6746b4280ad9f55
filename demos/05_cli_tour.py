"""
The command line in five commands
=================================

Everything the library does is reachable from the ``treesample`` command:
distance matrices (with caching), tree norms, graph and node subsampling,
and the verification modes.  Commands print a human summary by default and
machine-readable JSON with ``--json``; failures use distinct exit codes so
pipelines can tell a bad flag (1) from a bad input file (2) from a stale
cache (3) from a failed verification (4).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from treesample import clustered_dataset, save_jsonl

workdir = Path(tempfile.mkdtemp())
data = workdir / "toy.jsonl"
save_jsonl(clustered_dataset(n_graphs=20, families=4, seed=0), data)


def run(*args):
    # the installed ``treesample`` script is this module's main(); running it
    # through the current interpreter also works from a source checkout
    cmd = [sys.executable, "-m", "treesample.cli", *args]
    print("$ treesample", " ".join(str(a) for a in args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout.strip() or proc.stderr.strip())
    print(f"(exit code {proc.returncode})\n")
    return proc


# 1. Pairwise distances, written through a cache file.
cache = workdir / "toy.tmdc"
run("dist", "--dataset", data, "--depth", "3", "--cache", cache, "--json")

# 2. Running it again hits the cache: recomputed flips to false, checksum
#    stays identical.
run("dist", "--dataset", data, "--depth", "3", "--cache", cache, "--json")

# 3. Tree norms per graph.
run("treenorm", "--dataset", data, "--depth", "3")

# 4. Four weighted medoids out of twenty graphs, reusing the cached matrix.
run("subsample-graphs", "--dataset", data, "--depth", "3", "--k", "4",
    "--cache", cache, "--out", workdir / "medoids.json")

# 5. Cut every graph down to 60% of its nodes.
run("subsample-nodes", "--dataset", data, "--depth", "3", "--frac", "0.6",
    "--out", workdir / "nodes.jsonl")

# The verification mode sweeps level weights and reports whether the
# measured stability ratio stays within the guaranteed bound.
proc = run("verify", "--mode", "stability", "--synthetic", "20", "--depth", "3",
           "--pairs", "40", "--hidden", "8", "--eta", "1.0", "--json",
           "--out", workdir / "stab.json")
report = json.loads((workdir / "stab.json").read_text())
for rep in report["reports"]:
    print(f"  preset {rep['preset']}: max ratio {rep['max_ratio']:.4f},"
          f" violations {rep['violations']}")

# A deliberately stale cache (wrong depth for the cached matrix) exits 3.
run("dist", "--dataset", data, "--depth", "2", "--cache", cache)
