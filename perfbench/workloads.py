"""The benchmark's workloads: seeded inputs, the CLI commands of one
iteration, and the checks on what those commands produce.

Each workload loads one layer of treesample heavily and leaves the others
nearly idle (see ``BENCHMARK.json`` for the one-line reason of each).  Inputs
come only from the seed; the program sees them as files, exactly as a user's
``treesample`` invocation would.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist, squareform

from treesample import (TmdConfig, const_weights, kmedoids, load_jsonl,
                        load_or_compute, make_dataset, save_jsonl,
                        subsample_dataset, tmd, tmd_naive)
from treesample.cli import LAMBDA_SWEEP
from treesample.synth import random_graph
from treesample.tmd import DistanceMatrix

DEPTH = 3
# what the CLI builds from its defaults plus --depth 3
CLI_CONFIG = TmdConfig(depth=DEPTH, weights=const_weights(1.0), feature_norm="l2")


@dataclass
class Command:
    """One CLI invocation and the check of its output.

    ``check(outcome)`` runs outside the timed region and returns why the
    output is wrong, or None.
    """

    argv: list[str]
    check: Callable[[object], str | None]


def last_json(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("command printed nothing")
    return json.loads(lines[-1])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spread_sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` node counts spread evenly over ``lo .. hi``.

    Fixed sizes keep the amount of work per run nearly independent of the
    seed; the seed still draws every edge and feature.
    """
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def _refuse_compute():
    raise RuntimeError("the cache was expected to hold this matrix")


class Workload:
    """Base class: ``setup`` writes inputs, ``commands`` yields one iteration."""

    name = ""
    probe = ""  # speed.SpeedProbe kind matching the workload's hot path
    pairs_per_iteration = 0
    graphs_per_iteration = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def commands(self, iteration: int) -> list[Command]:
        raise NotImplementedError

    def deep_checks(self) -> list[tuple[str, bool, str]]:
        """Slower checks made once per run: (label, passed, detail)."""
        return []

    def output_digest(self) -> str | None:
        """Digest of the outputs, compared against the pinned one for seed 0."""
        return None

    def notes(self) -> list[str]:
        return []


class DistWorkload(Workload):
    """``dist --depth 3`` on G(n, p) graphs, a fresh cache path every time."""

    SAMPLED_PAIRS = 3
    probe = "tmd"

    def __init__(self, name: str, lo: int, hi: int, p: float, graphs: int):
        self.name = name
        self.lo, self.hi, self.p, self.graph_count = lo, hi, p, graphs
        self.pairs_per_iteration = graphs * (graphs - 1) // 2
        self.graphs_per_iteration = graphs

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, self.lo, self.hi])
        graphs = [random_graph(rng, n, self.p, feature_dim=3)
                  for n in spread_sizes(self.lo, self.hi, self.graph_count)]
        self.workdir = workdir
        self.dataset = workdir / "graphs.jsonl"
        save_jsonl(make_dataset(graphs), self.dataset)
        self.seed = seed
        self.file_digest = None
        self.matrix = None

    def commands(self, iteration):
        run_dir = self.workdir / f"dist-{iteration}"
        run_dir.mkdir()
        cache = run_dir / "pairs.tmdc"

        def check(outcome):
            try:
                payload = last_json(outcome.stdout)
                if payload["recomputed"] != 1:
                    return "expected a cache miss on a fresh cache path"
                if payload["n"] != self.graph_count:
                    return f"n={payload['n']}, expected {self.graph_count}"
                digest = sha256_file(cache)
                if payload["checksum"] != digest:
                    return "reported checksum is not the cache file's SHA-256"
                if self.file_digest is None:
                    ds = load_jsonl(self.dataset)
                    self.matrix, _ = load_or_compute(str(cache), ds, "tmd", CLI_CONFIG,
                                                     _refuse_compute)
                    self.file_digest = digest
                elif digest != self.file_digest:
                    return "cache file differs from the first iteration's"
                return None
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)

        return [Command(["dist", "--dataset", str(self.dataset), "--depth", str(DEPTH),
                         "--cache", str(cache), "--json"], check)]

    def output_digest(self):
        if self.matrix is None:
            return None
        return hashlib.sha256(
            np.ascontiguousarray(self.matrix.values, dtype="<f8").tobytes()).hexdigest()

    def deep_checks(self):
        if self.matrix is None:
            return [("dist output", False, "no dist command succeeded")]
        ds = load_jsonl(self.dataset)
        n = len(ds)
        rng = np.random.default_rng([self.seed, 7])
        out = []
        for _ in range(self.SAMPLED_PAIRS):
            i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            stored = self.matrix.value(i, j)
            swapped = tmd(ds[j], ds[i], CLI_CONFIG)
            out.append((f"symmetry tmd({j},{i}) == stored ({i},{j})", swapped == stored,
                        f"{swapped!r} vs {stored!r}"))
        small = [i for i in range(n) if ds[i].node_count <= 12][:2]
        if len(small) == 2:
            i, j = small
            naive = tmd_naive(ds[i], ds[j], CLI_CONFIG)
            stored = self.matrix.value(i, j)
            diff = abs(naive - stored)
            out.append((f"tmd_naive({i},{j}) agrees within 1e-9", diff <= 1e-9 * max(1.0, stored),
                        f"|diff| = {diff:.3g}"))
        else:
            out.append(("tmd_naive sample", False, "no two graphs with <= 12 nodes"))
        return out


class MedoidsWorkload(Workload):
    """``subsample-graphs --method tmd`` against warm caches (hits).

    Each iteration solves one large instance (single-swap sweeps only: its
    pair-sweep budget is exceeded) and a batch of small ones where pair
    sweeps run.  Every cache holds a 2-d point-cloud distance matrix keyed to
    its dataset's fingerprint, so no tree distance is computed.

    The geometry of each instance is fixed; the seed permutes the point
    labels and draws the graphs in the dataset.  A fresh uniform cloud per
    seed swings the exchange count between 10 and 23 at n = 400, k = 15,
    which would swamp any change in the cost per sweep.  Permuting points
    keeps every distance bit-identical, so every seed walks the same
    exchange path (14 exchanges on the large instance) under other labels.
    """

    name = "medoids"
    probe = "medoids"
    INSTANCES = ((300, 15), (60, 5), (60, 5), (60, 5), (60, 5))
    GEOMETRY_SEED = 20250216

    def __init__(self):
        self.pairs_per_iteration = sum(n * (n - 1) // 2 for n, _ in self.INSTANCES)
        self.graphs_per_iteration = sum(n for n, _ in self.INSTANCES)

    def setup(self, seed, workdir):
        self.instances = []
        for idx, (n, k) in enumerate(self.INSTANCES):
            geometry = np.random.default_rng([self.GEOMETRY_SEED, idx]).random((n, 2))
            rng = np.random.default_rng([seed, idx])
            points = geometry[rng.permutation(n)]
            ds = make_dataset([random_graph(rng, int(rng.integers(3, 6)), 0.5, feature_dim=2)
                               for _ in range(n)])
            dataset, cache = workdir / f"graphs-{idx}.jsonl", workdir / f"dist-{idx}.tmdc"
            save_jsonl(ds, dataset)
            dm = DistanceMatrix(n, "tmd", DEPTH, CLI_CONFIG.weights.spec_string(), pdist(points))
            load_or_compute(str(cache), ds, "tmd", CLI_CONFIG, lambda: dm)
            self.instances.append({"n": n, "k": k, "points": points, "dataset": dataset,
                                   "cache": cache, "reference": None})

    def commands(self, iteration):
        cmds = []
        for inst in self.instances:
            def check(outcome, inst=inst):
                sel = last_json(outcome.stdout)
                text = json.dumps(sel, sort_keys=True)
                idx, tau = sel["indices"], sel["tau"]
                if sum(tau) != inst["n"]:
                    return f"tau sums to {sum(tau)}, not n={inst['n']}"
                if len(idx) != inst["k"] or sorted(set(idx)) != idx:
                    return f"indices {idx} are not {inst['k']} sorted distinct medoids"
                if inst["reference"] is None:
                    inst["reference"] = text
                elif text != inst["reference"]:
                    return "selection differs from the first iteration's"
                return None

            cmds.append(Command(["subsample-graphs", "--dataset", str(inst["dataset"]),
                                 "--cache", str(inst["cache"]), "--depth", str(DEPTH),
                                 "--method", "tmd", "--k", str(inst["k"]), "--json"], check))
        return cmds

    def output_digest(self):
        refs = [inst["reference"] for inst in self.instances]
        return None if None in refs else sha256_text("\n".join(refs))

    def deep_checks(self):
        out = []
        for num, inst in enumerate(self.instances):
            label = f"instance {num} (n={inst['n']}, k={inst['k']})"
            if inst["reference"] is None:
                out.append((label, False, "no subsample-graphs command succeeded"))
                continue
            sel = json.loads(inst["reference"])
            idx = sel["indices"]
            dist = squareform(pdist(inst["points"]))[:, idx]
            objective = float(dist.min(axis=1).mean())
            tau = np.bincount(np.argmin(dist, axis=1), minlength=len(idx)).tolist()
            out.append((f"{label} objective matches numpy",
                        abs(objective - sel["objective"]) <= 1e-12 * max(1.0, objective),
                        f"{sel['objective']!r} vs {objective!r}"))
            out.append((f"{label} tau matches numpy", tau == sel["tau"], f"{sel['tau']} vs {tau}"))
            ds = load_jsonl(inst["dataset"])
            dm, _ = load_or_compute(str(inst["cache"]), ds, "tmd", CLI_CONFIG, _refuse_compute)
            trace: list[float] = []
            again = kmedoids(dm, inst["k"], trace=trace)
            monotone = all(b <= a for a, b in zip(trace, trace[1:]))
            out.append((f"{label} trace monotone", monotone and again.indices == idx,
                        f"{len(trace) - 1} exchanges"))
        return out


class NodesWorkload(Workload):
    """``verify --mode erm-nodes`` on labelled sparse graphs."""

    name = "nodes"
    probe = "nodes"
    FRAC = 0.5

    def __init__(self, graphs: int):
        self.graph_count = graphs
        self.pairs_per_iteration = graphs * len(LAMBDA_SWEEP)
        self.graphs_per_iteration = graphs * len(LAMBDA_SWEEP)

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 40, 90])
        graphs = [random_graph(rng, n, 4.0 / (n - 1), feature_dim=3,
                               label=int(rng.integers(2)))
                  for n in spread_sizes(40, 90, self.graph_count)]
        self.dataset = workdir / "graphs.jsonl"
        save_jsonl(make_dataset(graphs), self.dataset)
        self.reference = None
        self.short_kept = None

    def commands(self, iteration):
        def check(outcome):
            payload = last_json(outcome.stdout)
            if payload.get("chain_ok") is not True:
                return "transport-plan chain violated"
            if len(payload["reports"]) != len(LAMBDA_SWEEP):
                return f"{len(payload['reports'])} preset reports, expected {len(LAMBDA_SWEEP)}"
            text = json.dumps(payload, sort_keys=True)
            if self.reference is None:
                self.reference = text
            elif text != self.reference:
                return "verify output differs from the first iteration's"
            return None

        return [Command(["verify", "--mode", "erm-nodes", "--depth", str(DEPTH),
                         "--hypotheses", "20", "--frac", str(self.FRAC),
                         "--dataset", str(self.dataset), "--json"], check)]

    def output_digest(self):
        return None if self.reference is None else sha256_text(self.reference)

    def deep_checks(self):
        if self.reference is None:
            return [("verify output", False, "no verify command succeeded")]
        ds = load_jsonl(self.dataset)
        epsilons = {r["preset"]: r["epsilon"] for r in json.loads(self.reference)["reports"]}
        out, short, total = [], 0, 0
        for lam in LAMBDA_SWEEP:
            cfg = TmdConfig(depth=DEPTH, weights=const_weights(lam), feature_norm="l2")
            preset = cfg.weights.spec_string()
            subs = subsample_dataset(ds, self.FRAC, cfg, seed=0)
            bad = []
            for g, s in zip(ds, subs):
                k = min(g.node_count, max(1, int(math.floor(self.FRAC * g.node_count + 0.5))))
                kept = list(s.kept)
                total += 1
                short += len(kept) < k
                if not (1 <= len(kept) <= k and kept == sorted(set(kept))
                        and 0 <= kept[0] and kept[-1] < g.node_count):
                    bad.append(f"graph {s.graph_id}: kept {len(kept)} of budget {k}")
                elif s.tree_norm_full - s.tree_norm_sub != s.tmd_to_full:
                    bad.append(f"graph {s.graph_id}: distance is not the norm difference")
            out.append((f"{preset} kept sets within round(frac*n)", not bad, "; ".join(bad[:3])))
            eps = math.fsum(s.tmd_to_full for s in subs) / len(subs)
            out.append((f"{preset} epsilon matches the subsamples", epsilons.get(preset) == eps,
                        f"{epsilons.get(preset)!r} vs {eps!r}"))
        self.short_kept = short / total
        return out

    def notes(self):
        if self.short_kept is None:
            return []
        return [f"nodes: {self.short_kept:.3f} of kept sets hold fewer than round(frac*n) "
                "nodes (a smaller BFS ball had the larger tree norm)"]


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "dist-sparse": lambda: DistWorkload("dist-sparse", 10, 25, 0.2, graphs=12),
    "dist-dense": lambda: DistWorkload("dist-dense", 12, 20, 0.5, graphs=10),
    "medoids": MedoidsWorkload,
    "nodes": lambda: NodesWorkload(graphs=12),
}
