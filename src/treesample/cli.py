"""Command-line interface.

Subcommands: ``dist``, ``treenorm``, ``subsample-graphs``, ``subsample-nodes``,
``verify``.  Exit codes: 0 success, 1 configuration error, 2 I/O or data
error, 3 distance-cache mismatch, 4 preset-conditional verification failure,
70 hard verification failure (an invariant that should never break did).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

from .cache import load_or_compute
from .config import TmdConfig, const_weights, parse_weights
from .errors import (CacheMismatchError, ConfigError, DatasetError,
                     NumericalOverflowError, _require_int, _require_real)
from .gnn import (finite_erm_sweep, gin_forward, identity_gin, random_gin,
                  stability_sweep)
from .graph_select import (kmedoids, feature_distance_matrix, nearest_medoid,
                           random_selection, wl_pseudometric_matrix)
from .graphs import induced_subgraph, load_jsonl, load_tu, make_dataset
from .node_select import mean_tmd, subsample_dataset, subsample_sweep
from .synth import random_pairs, synthetic_dataset, wl_counterexample_pair
from .tmd import pairwise_matrix
from .treenorm import tree_norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_CACHE = 3
EXIT_PRESET = 4
EXIT_HARD_FAIL = 70

LAMBDA_SWEEP = (0.5, 1.0, 2.0, 4.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad flags are config errors
        raise ConfigError(message)


def _int_from(low: int):
    """argparse type for an int >= ``low``; the gate gets no name, argparse names the flag."""
    def parse(text: str) -> int:
        try:
            return _require_int(int(text), "", low, None)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _positive_float(text: str) -> float:
    """argparse type for a finite float > 0; as in _int_from, argparse names the flag."""
    try:
        value = _require_real(float(text), "")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc).lstrip()) from None
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


_positive_float.__name__ = "float"  # as in _int_from


class _Noted(argparse.Action):
    """Store the value, as the default action does, and note the flag in
    ``args.given``, so that ``verify`` can refuse what its mode does not read."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.option_strings[0]}


def _add_common(p: _Parser, *, weights: bool) -> None:
    p.add_argument("--dataset", action=_Noted,
                   help="a .jsonl file, a TU directory DIR (read as DIR/<basename "
                   "DIR>_*.txt), or DIR/NAME (read as DIR/NAME_*.txt)")
    p.add_argument("--depth", type=_int_from(1), default=2, help="tree depth L (default 2)")
    if weights:  # verify sweeps its own level weights
        p.add_argument("--weights", default="const:1.0",
                       help="level weights: const:<x> or table:w1,w2,... (default const:1.0)")
    p.add_argument("--norm", action=_Noted, choices=("l1", "l2"), default="l2")
    p.add_argument("--out", help="output file path")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="treesample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="compute and cache pairwise distances")
    _add_common(p, weights=True)
    p.add_argument("--cache", help="binary distance-cache path")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("treenorm", help="print the tree norm of every graph")
    _add_common(p, weights=True)
    p.set_defaults(func=_cmd_treenorm)

    p = sub.add_parser("subsample-graphs", help="select k weighted medoid graphs")
    _add_common(p, weights=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--cache", help="binary distance-cache path")
    p.add_argument("--k", type=_int_from(1), required=True)
    p.add_argument("--method", choices=("tmd", "wl", "feature", "random"),
                   default="tmd")
    p.set_defaults(func=_cmd_subsample_graphs)

    p = sub.add_parser("subsample-nodes", help="shrink every graph to a node subset")
    _add_common(p, weights=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--frac", type=float, required=True,
                   help="target fraction of nodes to keep, in (0, 1]")
    p.set_defaults(func=_cmd_subsample_nodes)

    p = sub.add_parser("verify", help="run empirical guarantee checks")
    _add_common(p, weights=False)
    p.add_argument("--seed", action=_Noted, type=_int_from(0), default=0)
    p.add_argument("--mode", required=True,
                   choices=("stability", "erm-graphs", "erm-nodes",
                            "wl-counterexample"))
    p.add_argument("--synthetic", action=_Noted, type=_int_from(1), metavar="N",
                   help="use the built-in generator with N graphs instead of --dataset")
    p.add_argument("--pairs", action=_Noted, type=_int_from(1), default=100,
                   help="graph pairs (stability)")
    p.add_argument("--hypotheses", action=_Noted, type=_int_from(1), default=20,
                   help="GIN hypotheses (erm-*)")
    p.add_argument("--k", action=_Noted, type=_int_from(1), default=5,
                   help="medoid count (erm-graphs)")
    p.add_argument("--frac", action=_Noted, type=float, default=0.5,
                   help="node fraction (erm-nodes)")
    p.add_argument("--hidden", action=_Noted, type=_int_from(1), default=8)
    p.add_argument("--eta", type=_positive_float, default=1.0)
    p.set_defaults(func=_cmd_verify)
    return parser


def _config(args) -> TmdConfig:
    return TmdConfig(depth=args.depth, weights=parse_weights(args.weights),
                     feature_norm=args.norm)


def _load(args):
    if getattr(args, "synthetic", None) is not None:
        return synthetic_dataset(args.synthetic, args.seed)
    if not args.dataset:
        raise ConfigError("--dataset is required (or --synthetic for verify)")
    path = args.dataset
    if os.path.isdir(path):  # a TU directory named after its dataset
        return load_tu(path, os.path.basename(os.path.normpath(path)))
    if not os.path.exists(path) and os.path.exists(f"{path}_A.txt"):  # DIR/NAME
        return load_tu(*os.path.split(path))
    return load_jsonl(path)  # a file, or a missing path that it names


def _emit(args, payload: dict, summary: str, out_lines) -> None:
    """Print ``payload`` as one JSON line with ``--json``, else ``summary``;
    write ``--out`` as ``out_lines``, one to a line, or as the indented
    payload for ``None``."""
    if args.out:
        if out_lines is None:
            out_lines = [json.dumps(payload, sort_keys=True, indent=2)]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in out_lines)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif summary:  # an empty dataset's treenorm prints nothing
        print(summary)


def _labelled(record, **labels) -> dict:
    """A result record's JSON fields plus the labels this command chose for it."""
    return dict(json.loads(record.to_json()), **labels)


def _file_sha256(path: str) -> str:
    """SHA-256 of the file, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cmd_dist(args) -> int:
    if not args.cache:
        raise ConfigError("dist needs --cache to store the matrix")
    ds = _load(args)
    cfg = _config(args)
    dm, recomputed = load_or_compute(args.cache, ds, "tmd", cfg,
                                     lambda: pairwise_matrix(ds, cfg))
    digest = _file_sha256(args.cache)
    payload = {"n": dm.n, "checksum": digest, "recomputed": int(recomputed),
               "metric": dm.metric, "depth": dm.depth, "preset": dm.weight_preset}
    _emit(args, payload,
          f"n={dm.n} checksum={digest} recomputed={int(recomputed)}", None)
    return EXIT_OK


def _cmd_treenorm(args) -> int:
    ds = _load(args)
    cfg = _config(args)
    values = [tree_norm(g, cfg) for g in ds]
    _emit(args, {"values": values}, "\n".join(map(repr, values)), None)
    return EXIT_OK


def _cmd_subsample_graphs(args) -> int:
    ds = _load(args)
    cfg = _config(args)
    # each method's metric name and matrix builder; the lambdas look the
    # builders up when called, so a wrapper set on this module applies
    builders = {"tmd": lambda: pairwise_matrix(ds, cfg),
                "wl": lambda: wl_pseudometric_matrix(ds, cfg.depth),
                "feature": lambda: feature_distance_matrix(ds, cfg)}
    if args.method in builders:
        dm, _ = load_or_compute(args.cache, ds, args.method, cfg,
                                builders[args.method])
        sel = kmedoids(dm, args.k)
    else:
        # random needs no distances; with a cache it is scored on tmd's, as
        # the other methods are on theirs
        dm = (load_or_compute(args.cache, ds, "tmd", cfg, builders["tmd"])[0]
              if args.cache else None)
        sel = random_selection(len(ds), args.k, args.seed, d=dm)
    payload = _labelled(sel, method=args.method, seed=args.seed)
    _emit(args, payload, f"method={args.method} k={sel.k} indices={sel.indices} "
          f"tau={sel.tau} objective={sel.objective}", [json.dumps(payload, sort_keys=True)])
    return EXIT_OK


def _cmd_subsample_nodes(args) -> int:
    ds = _load(args)
    cfg = _config(args)
    subs = subsample_dataset(ds, args.frac, cfg, seed=args.seed)
    mean_eps = mean_tmd(subs)
    _emit(args, {"graphs": len(subs), "mean_tmd": mean_eps},
          f"graphs={len(subs)} mean_tmd={mean_eps}", (s.to_json() for s in subs))
    return EXIT_OK


def _sweep_configs(args) -> list[TmdConfig]:
    low, top = min(LAMBDA_SWEEP), max(LAMBDA_SWEEP)
    if not math.isfinite(top * args.eta):
        raise ConfigError(f"--eta {args.eta!r} puts the preset const:{top:g}*eta "
                          "past the float range")
    if not low * args.eta > 0:
        raise ConfigError(f"--eta {args.eta!r} puts the preset const:{low:g}*eta "
                          "below the smallest positive float")
    return [TmdConfig(depth=args.depth, weights=const_weights(lam * args.eta),
                      feature_norm=args.norm) for lam in LAMBDA_SWEEP]


def _verify_wl_counterexample(args) -> tuple[dict, int, str]:
    ga, gb = wl_counterexample_pair()
    dist = wl_pseudometric_matrix(make_dataset([ga, gb]), args.depth).value(0, 1)
    probe = identity_gin(eta=args.eta)
    gap = float(abs(gin_forward(probe, ga)[0] - gin_forward(probe, gb)[0]))
    payload = {"mode": "wl-counterexample", "wl_distance": dist, "gin_gap": gap}
    if dist != 0.0:
        return payload, EXIT_HARD_FAIL, (
            f"label-refinement distance should be exactly 0, got {dist}")
    if gap <= 1e-6:
        return payload, EXIT_HARD_FAIL, f"readout gap should exceed 1e-6, got {gap}"
    return payload, EXIT_OK, ""


def _verify_stability(args, ds) -> tuple[dict, int, str]:
    pairs = random_pairs(ds, args.pairs, args.seed + 1)
    model = random_gin(args.seed, ds.feature_dim, args.hidden, args.depth, eta=args.eta)
    cfgs = _sweep_configs(args)
    reports = [(cfg.weights.spec_string(), r)
               for cfg, r in zip(cfgs, stability_sweep(model, ds.graphs, pairs, cfgs))]
    payload = {"mode": "stability",
               "reports": [_labelled(r, preset=p) for p, r in reports],
               "passed_any": any(r.violations == 0 for _, r in reports)}
    broken = [(p, r) for p, r in reports if r.infinite]
    if broken:  # an infinite ratio is a zero-distance pair whose readouts differ
        preset, r = broken[0]
        return payload, EXIT_HARD_FAIL, (
            f"{r.infinite}/{r.pairs} pairs at distance 0 have readouts "
            f"further apart than rounding (preset {preset})")
    if not payload["passed_any"]:
        preset, best = min(reports, key=lambda pr: pr[1].violations)
        return payload, EXIT_PRESET, (
            f"all presets saw ratio > 1 (best preset {preset} still had "
            f"{best.violations}/{best.pairs} violations, max ratio {best.max_ratio:.4g})")
    return payload, EXIT_OK, ""


def _verify_erm(args, ds, mode: str) -> tuple[dict, int, str]:
    if len(ds) == 0:  # before random_gin, which would name the 0 feature width
        raise ConfigError(f"{mode} needs graphs; the dataset is empty")
    hypotheses = [random_gin(args.seed + t, ds.feature_dim, args.hidden, args.depth,
                             eta=args.eta) for t in range(args.hypotheses)]
    cfgs = _sweep_configs(args)
    # one transport plan per preset: epsilon, and each graph's stand-in
    if mode == "erm-graphs":  # lazy, so the sweep holds at most two presets' matrices
        plans = ((sel.objective, [ds[j] for j in nearest_medoid(dm, sel.indices)[0]])
                 for dm in (pairwise_matrix(ds, cfg) for cfg in cfgs)
                 for sel in [kmedoids(dm, args.k)])
    else:  # presets that keep the same nodes of a graph share its subgraph
        subgraph = functools.cache(lambda i, kept: induced_subgraph(ds[i], kept))
        plans = ((mean_tmd(subs), [subgraph(s.graph_id, s.kept) for s in subs])
                 for subs in subsample_sweep(ds, args.frac, cfgs, seed=args.seed))
    found = finite_erm_sweep(ds, hypotheses, plans)
    reports = [(cfg.weights.spec_string(), r) for cfg, r in zip(cfgs, found)]
    payload = {"mode": mode,
               "reports": [_labelled(r, preset=p, mode=mode.removeprefix("erm-"))
                           for p, r in reports],
               "chain_ok": all(r.chain_ok for _, r in reports),
               "satisfied_any": any(r.satisfied for _, r in reports),
               "passed_any": any(r.chain_ok and r.satisfied for _, r in reports)}
    if payload["passed_any"]:
        return payload, EXIT_OK, ""
    if mode == "erm-nodes" and not payload["chain_ok"]:
        # node mode never substitutes labels, so its chain is a plain
        # Lipschitz contraction and a violation means broken arithmetic
        excess, preset = max((r.chain_max_excess, p) for p, r in reports if not r.chain_ok)
        return payload, EXIT_HARD_FAIL, (
            f"transport-plan chain violated by {excess:.3e} under preset {preset}")
    clean = [(p, r) for p, r in reports if r.chain_ok]
    if clean:
        gap, preset = min((r.loss_full_of_erm - r.min_loss_full - r.bound_rhs, p)
                          for p, r in clean)
        return payload, EXIT_PRESET, (
            f"no preset satisfied the 2*c*eps bound (closest: {preset}, excess {gap:.4g})")
    # graph mode with every preset's chain broken: some graph's nearest
    # medoid carries a different label, which voids the Lipschitz step
    excess, preset = min((r.chain_max_excess, p) for p, r in reports)
    return payload, EXIT_PRESET, (
        f"transport-plan chain violated under every preset (least excess "
        f"{excess:.3e}, {preset}); nearest medoids carry mismatched labels, "
        "try k at least the number of label groups")


# verify flags that not every mode reads, and the modes that read them
_VERIFY_READERS = {
    **dict.fromkeys(("--dataset", "--synthetic", "--norm", "--seed", "--hidden"),
                    ("stability", "erm-graphs", "erm-nodes")),
    "--pairs": ("stability",),
    "--hypotheses": ("erm-graphs", "erm-nodes"),
    "--k": ("erm-graphs",),
    "--frac": ("erm-nodes",),
}


def _cmd_verify(args) -> int:
    given = getattr(args, "given", frozenset())
    unread = [flag for flag in sorted(given)
              if args.mode not in _VERIFY_READERS.get(flag, (args.mode,))]
    if unread:
        raise ConfigError(f"verify --mode {args.mode} does not read {', '.join(unread)}")
    # the generator stands in for the dataset, so --dataset would go unread
    if {"--synthetic", "--dataset"} <= given:
        raise ConfigError("verify --synthetic does not read --dataset")
    if args.mode == "wl-counterexample":
        payload, code, diagnostic = _verify_wl_counterexample(args)
    else:
        ds = _load(args)
        if args.mode == "stability":
            payload, code, diagnostic = _verify_stability(args, ds)
        else:
            payload, code, diagnostic = _verify_erm(args, ds, args.mode)
    status = "ok" if code == EXIT_OK else f"FAILED exit={code}"
    _emit(args, payload, f"mode={args.mode} {status}", None)
    if diagnostic:
        kind = "preset-conditional failure" if code == EXIT_PRESET else "verification failed"
        print(f"{kind}: {diagnostic}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CacheMismatchError as exc:
        print(f"cache mismatch: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (DatasetError, NumericalOverflowError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
