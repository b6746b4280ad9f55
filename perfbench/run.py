"""Benchmark of the treesample command line, run in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dist-sparse --seed 0 --seconds 20 --trace 0

Each run generates its inputs from ``--seed``, times the workload's CLI
command sequence (``treesample.cli.main(argv)``) over and over for
``--seconds`` seconds, one command at a time, then checks the outputs.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every other iteration runs with the
layer wrappers of ``tracer.py`` installed and the metrics are per layer,
including the tracing overhead.  Every time is scaled to reference host
speed by the probes in ``speed.py``.  Lines before the result are a
human-readable report.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# one caller, one command at a time: keep BLAS from adding its own threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
# ROADMAP north star: 60 seeded G(n, 0.2) graphs of 10-25 nodes, depth 3
BASELINE_MS_PER_PAIR = 12.3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("pairs_per_s", "1/s"),
              ("graphs_per_s", "1/s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import treesample from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import treesample
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import treesample from {src}: {exc}")
    if not Path(treesample.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: treesample was imported from {treesample.__file__}, "
                         f"not from {src}")


class Outcome:
    """What one CLI command did: exit code (None if it raised), output, time."""

    def __init__(self, code, stdout, stderr, seconds, error=None):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.seconds, self.error = seconds, error


def run_cli(main, argv) -> Outcome:
    """Call ``main(argv)`` with stdout/stderr captured; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


def classify(code, error=None) -> str | None:
    """Why a command counts as failed, or None when it completed.

    0 is success and 4 a preset-conditional verdict, which is a completed
    verification.  1, 2, 3 and 70 (configuration, data, cache mismatch,
    hard verification failure), any other status and an uncaught exception
    are failures.
    """
    if error is not None:
        return "uncaught exception"
    if code in (0, 4):
        return None
    return f"exit status {code}"


def check_outcome(command, outcome) -> str | None:
    failure = classify(outcome.code, outcome.error)
    if failure is not None:
        return failure
    try:
        return command.check(outcome)
    except Exception as exc:  # malformed output is a failed check
        return f"output check raised {type(exc).__name__}: {exc}"


def median_and_tail(values):
    """Median, plus the highest of p75/p90/p95/p99 with at least ten samples
    beyond it (None when there are fewer than 20 samples)."""
    med = statistics.median(values)
    n = len(values)
    tail = None
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            tail = (pct, statistics.quantiles(values, n=100)[pct - 1])
            break
    return med, tail


def describe(name, values, unit):
    med, tail = median_and_tail(values)
    extra = f", p{tail[0]} {tail[1]:.6g} {unit}" if tail else ""
    return f"{name}: median {med:.6g} {unit} over {len(values)} samples{extra}"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def workload_why(name) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return next(w["why"] for w in spec["workloads"] if w["name"] == name)
    except (OSError, ValueError, KeyError, StopIteration):
        return "(no BENCHMARK.json entry)"


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text())
    return pins["digests"].get(workload) if seed == pins["seed"] else None


class Iteration:
    """One pass over a workload's commands: raw and reference-speed time."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.raw_s = 0.0
        self.wall_s = 0.0
        self.spans = (0, 0)

    @property
    def scale(self) -> float:
        return self.wall_s / self.raw_s if self.raw_s else 1.0


def measure(wl, seconds, cli_main, probe, tracer=None):
    """Run ``wl``'s command sequence until ``seconds`` have passed.

    Each command is timed alone and scaled to reference speed by the probe
    timed right before and after it.  With a tracer, odd iterations run with
    the layer wrappers installed.  Returns (attempted, failed, iterations).
    """
    from tracer import install_treesample

    traced_main = tracer.wrap("cli.main", cli_main) if tracer is not None else None
    attempted = failed = 0
    iterations = []
    deadline = time.perf_counter() + seconds
    while len(iterations) < (2 if tracer is not None else 1) or time.perf_counter() < deadline:
        it = Iteration(traced=tracer is not None and len(iterations) % 2 == 1)
        lo = len(tracer) if tracer is not None else 0
        for command in wl.commands(len(iterations)):
            before = probe.seconds()
            if it.traced:
                tracer.new_request()
                install_treesample(tracer)
                try:
                    outcome = run_cli(traced_main, command.argv)
                finally:
                    tracer.uninstall()
            else:
                outcome = run_cli(cli_main, command.argv)
            it.raw_s += outcome.seconds
            it.wall_s += outcome.seconds * probe.scale(before, probe.seconds())
            attempted += 1
            failure = check_outcome(command, outcome)
            if failure:
                failed += 1
                print(f"FAILED {' '.join(command.argv)}: {failure}\n"
                      f"{outcome.error or outcome.stderr}", file=sys.stderr)
        if it.traced:
            it.spans = (lo, len(tracer))
        iterations.append(it)
    return attempted, failed, iterations


def set_up(workload_factory, seed, run_dir, probe):
    """Set the workload up SETUP_REPEATS times; return the last instance and
    the (raw, reference-speed) duration of each set-up."""
    raw, scaled = [], []
    for rep in range(SETUP_REPEATS):
        wl = workload_factory()
        rep_dir = run_dir / f"setup-{rep}"
        rep_dir.mkdir()
        before = probe.seconds()
        t0 = time.perf_counter()
        wl.setup(seed, rep_dir)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * probe.scale(before, probe.seconds()))
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir)
    return wl, raw, scaled


def run(args) -> int:
    import numpy
    import scipy

    import treesample.cli as cli
    from speed import SpeedProbe
    from tracer import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    report = [f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}",
              f"why: {workload_why(args.workload)}",
              f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"scipy={scipy.__version__} commit={git_commit()}",
              "loadavg before: " + " ".join(f"{x:.2f}" for x in os.getloadavg())]

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    tempfile.tempdir = str(run_dir)
    try:
        factory = WORKLOADS[args.workload]
        probe = SpeedProbe(factory().probe)
        wl, setup_raw, setup_s = set_up(factory, args.seed, run_dir, probe)
        tracer = Tracer() if args.trace else None
        attempted, failed, iterations = measure(wl, args.seconds, cli.main, probe, tracer)

        try:
            checks = wl.deep_checks()
        except Exception:  # a crashing check is one failed operation
            checks = [("slow output checks", False, traceback.format_exc())]
        pin = pinned_digest(args.workload, args.seed)
        if pin is not None:
            checks.append(("output digest matches the pinned one", wl.output_digest() == pin,
                           f"{wl.output_digest()} vs {pin}"))
        for label, ok, detail in checks:
            attempted += 1
            failed += not ok
            report.append(f"check {'ok' if ok else 'FAILED'}: {label} ({detail})")
        report.extend(wl.notes())
        report.append(f"output digest: {wl.output_digest()}")

        untraced = [it for it in iterations if not it.traced]
        walls = [it.wall_s for it in untraced]
        report.append(describe("setup_s (reference speed)", setup_s, "s"))
        report.append(describe("setup_s (raw)", setup_raw, "s"))
        report.append(describe("wall_s (reference speed)", walls, "s"))
        report.append(describe("wall_s (raw)", [it.raw_s for it in untraced], "s"))
        report.append(describe("host slowdown (probe time / reference)",
                               [1.0 / it.scale for it in untraced], "x"))
        report.append(f"operations: attempted {attempted}, failed {failed}, "
                      f"fail_frac {failed / attempted:.4g}")
        if args.workload == "dist-sparse":
            ms = 1000.0 * statistics.median(walls) / wl.pairs_per_iteration
            report.append(f"dist-sparse: {ms:.2f} ms/pair at reference speed over {wl.graph_count} graphs; "
                          f"ROADMAP baseline for the same graph shape (60 graphs): "
                          f"{BASELINE_MS_PER_PAIR} ms/pair, ratio {ms / BASELINE_MS_PER_PAIR:.3f}")

        if tracer is None:
            values = {
                "setup_s": statistics.median(setup_s),
                "wall_s": statistics.median(walls),
                "pairs_per_s": statistics.median(wl.pairs_per_iteration / w for w in walls),
                "graphs_per_s": statistics.median(wl.graphs_per_iteration / w for w in walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        else:
            traced = [it for it in iterations if it.traced]
            spans = tracer.arrays()
            per_iteration = []
            for it in traced:
                m = layer_metrics(tracer.names, spans, *it.spans)
                for name, unit in PER_LAYER:  # span times to reference speed too
                    if unit == "s":
                        m[name] *= it.scale
                    elif unit == "1/s":
                        m[name] /= it.scale
                per_iteration.append(m)
            metrics = {name: {"value": statistics.median(m[name] for m in per_iteration),
                              "unit": unit} for name, unit in PER_LAYER}
            overhead = (statistics.median(it.wall_s for it in traced)
                        - statistics.median(walls))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            report.append(describe("traced wall_s (reference speed)",
                                   [it.wall_s for it in traced], "s"))
            report.append(f"tracing overhead: {overhead:.6g} s per iteration "
                          f"({len(tracer)} spans recorded)")
            tracer.save(WORK / f"spans-{args.workload}.npz")
        report.append("loadavg after: " + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)

    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
