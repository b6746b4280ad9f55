"""In-memory span tracer that wraps treesample's functions from outside.

Nothing in ``src/`` knows about tracing.  :class:`Tracer` replaces module
attributes with timing wrappers while it is installed and puts the originals
back afterwards, so an untraced command runs the unmodified program.

A function is wrapped in the namespace of the module that *calls* it: ``cli``
looks up ``kmedoids`` in its own globals, so ``cli.kmedoids`` is the name to
patch, not ``graph_select.kmedoids``.  Modules come from
``importlib.import_module`` because the package ``__init__`` rebinds names
such as ``treesample.tmd`` to functions.

Every call becomes one span: name, parent span, start, end and two optional
amounts (a block size, a byte count, ...).  Spans are kept in flat arrays so
that the ~40k matchings of one ``dist`` command stay cheap to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

ROOT = -1


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.amount2 = array("d")
        self.request = array("i")
        self._stack = [ROOT]
        self._request_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_request(self) -> None:
        """Mark the start of the next command; its spans share one request id."""
        self._request_id += 1

    def wrap(self, name: str, fn, amount=None, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` may rewrite the call (it returns new args and
        kwargs); ``amount(args, kwargs, result)`` returns one number or a pair
        stored on the span once the call has returned.
        """
        nid = self.name_id(name)
        parent, names, starts, ends = self.parent, self.name, self.start, self.end
        amounts, amounts2, requests = self.amount, self.amount2, self.request
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            parent.append(stack[-1])
            names.append(nid)
            requests.append(self._request_id)
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0.0)
            amounts2.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if amount is not None:
                val = amount(args, kwargs, result)
                if isinstance(val, tuple):
                    amounts[idx], amounts2[idx] = val
                else:
                    amounts[idx] = val
            return result

        return traced

    def __len__(self):
        return len(self.start)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
            "amount2": np.frombuffer(self.amount2, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (numpy ``.npz``)."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls nest synchronously, so a parent's children never overlap and the
    covered part of its interval is the plain sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.shape[0])
    return duration - covered


def imported_functions(module) -> list[str]:
    """Names that ``module`` imported from other treesample modules and calls
    through its own globals (plain functions only, not classes)."""
    out = []
    for attr, obj in vars(module).items():
        if not inspect.isfunction(obj):
            continue
        home = getattr(obj, "__module__", "") or ""
        if home.startswith("treesample.") and home != module.__name__:
            out.append(attr)
    return sorted(out)


def install_treesample(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics need."""
    mod = {name: importlib.import_module(f"treesample.{name}")
           for name in ("cli", "cache", "gnn", "graph_select", "node_select", "tmd")}

    def span_name(fn):
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def file_size(path):
        return float(os.path.getsize(path)) if path and os.path.exists(path) else 0.0

    def sidecar_of(path):
        side = getattr(mod["cache"], "sidecar_path", None)
        return side(path) if side is not None else None

    def written_bytes(args, kwargs, result):
        return file_size(args[0]) + file_size(sidecar_of(args[0]))

    def kmedoids_trace(args, kwargs):
        if kwargs.get("trace") is None and len(args) < 5:
            kwargs = dict(kwargs, trace=[])
        return args, kwargs

    def kmedoids_exchanges(args, kwargs, result):
        trace = kwargs.get("trace") if len(args) < 5 else args[4]
        return float(len(trace) - 1) if trace else 0.0

    def candidate_counts(args, kwargs, result):
        h = args[3] if len(args) > 3 else kwargs.get("heuristics", ("bfs", "rw", "kcore"))
        generated = (args[0].node_count if "bfs" in h else 0) + ("rw" in h) + ("kcore" in h)
        return float(len(result)), float(generated)

    def tree_norm_edge_levels(args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return float(args[0].edge_count * (cfg.depth - 1))

    hooks = {
        "matching_value": dict(amount=lambda a, k, r: float(np.shape(a[0])[0])),
        "load_or_compute": dict(amount=lambda a, k, r: float(bool(r[1]))),
        "write_matrix": dict(amount=written_bytes),
        "read_matrix": dict(amount=lambda a, k, r: file_size(a[0])),
        "read_sidecar": dict(amount=lambda a, k, r: file_size(sidecar_of(a[0]))),
        "kmedoids": dict(before=kmedoids_trace, amount=kmedoids_exchanges),
        "build_candidates": dict(amount=candidate_counts),
        "select_subset": dict(amount=lambda a, k, r: float(len(a[1]))),
        "tree_norm": dict(amount=tree_norm_edge_levels),
    }

    def patch(module, attr):
        fn = getattr(module, attr)
        tracer.patch(module, attr, span_name(fn), **hooks.get(attr, {}))

    # cross-layer calls, patched in the caller's namespace
    for caller in ("cli", "gnn", "graph_select", "node_select", "tmd", "cache"):
        for attr in imported_functions(mod[caller]):
            patch(mod[caller], attr)
    # calls a layer makes to its own public functions through its globals
    own = {
        "tmd": ("tmd", "tmd_cost_matrix"),
        "cache": ("read_matrix", "read_sidecar", "write_matrix"),
        "graph_select": ("nearest_medoid", "medoids_objective", "cluster_sizes"),
        "node_select": ("build_candidates", "select_subset"),
        "gnn": ("gin_forward", "layer_lipschitz"),
    }
    for layer, attrs in own.items():
        for attr in attrs:
            if hasattr(mod[layer], attr):
                patch(mod[layer], attr)
    # DistanceMatrix lives in tmd, but only graph_select densifies it
    tracer.patch(mod["tmd"].DistanceMatrix, "full", "graph_select.dense_matrix")


PER_LAYER = (
    ("matching.calls.q1-6", "count"), ("matching.s.q1-6", "s"),
    ("matching.calls.q7-12", "count"), ("matching.s.q7-12", "s"),
    ("matching.calls.q13p", "count"), ("matching.s.q13p", "s"),
    ("tmd.pairs", "count"), ("tmd.cost_matrix_s", "s"), ("tmd.self_s", "s"),
    ("cache.write_s", "s"), ("cache.bytes_written", "bytes"), ("cache.misses", "count"),
    ("cache.read_s", "s"), ("cache.bytes_read", "bytes"), ("cache.hits", "count"),
    ("graph_select.kmedoids_s", "s"), ("graph_select.exchanges", "count"),
    ("graph_select.dense_matrix_calls", "count"), ("graph_select.dense_matrix_s", "s"),
    ("graph_select.nearest_medoid_s", "s"),
    ("node_select.build_candidates_s", "s"), ("node_select.select_subset_s", "s"),
    ("node_select.candidates_per_graph", "count"), ("node_select.dedup_ratio", "ratio"),
    ("treenorm.calls", "count"), ("treenorm.s", "s"), ("treenorm.edge_levels_per_s", "1/s"),
    ("graphs.induced_subgraph_calls", "count"), ("graphs.induced_subgraph_s", "s"),
    ("gnn.forward_calls", "count"), ("gnn.forward_s", "s"), ("gnn.lipschitz_s", "s"),
    ("graphs.load_jsonl_s", "s"), ("graphs.fingerprint_s", "s"),
    ("cli.self_s", "s"),
)

_Q_BINS = (("q1-6", 1, 6), ("q7-12", 7, 12), ("q13p", 13, np.inf))


def layer_metrics(names: list[str], spans: dict[str, np.ndarray],
                  lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``lo .. hi - 1`` (one traced command
    sequence).  ``spans`` is :meth:`Tracer.arrays`; self times are computed
    over all spans, so children recorded in the slice are accounted for."""
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)[lo:hi]
    duration = duration[lo:hi]
    name = spans["name"][lo:hi]
    amount, amount2 = spans["amount"][lo:hi], spans["amount2"][lo:hi]
    ids = {n: i for i, n in enumerate(names)}

    def mask(*span_names):
        m = np.zeros(name.shape[0], dtype=bool)
        for s in span_names:
            if s in ids:
                m |= name == ids[s]
        return m

    def busy(*span_names):
        return float(duration[mask(*span_names)].sum())

    def calls(*span_names):
        return float(mask(*span_names).sum())

    out: dict[str, float] = {}
    mv = mask("matching.matching_value")
    for label, q_lo, q_hi in _Q_BINS:
        m = mv & (amount >= q_lo) & (amount <= q_hi)
        out[f"matching.calls.{label}"] = float(m.sum())
        out[f"matching.s.{label}"] = float(duration[m].sum())

    out["tmd.pairs"] = calls("tmd.tmd")
    out["tmd.cost_matrix_s"] = busy("tmd.tmd_cost_matrix")
    out["tmd.self_s"] = float(own[mask("tmd.tmd", "tmd.tmd_cost_matrix")].sum())

    loc = mask("cache.load_or_compute")
    out["cache.write_s"] = busy("cache.write_matrix")
    out["cache.bytes_written"] = float(amount[mask("cache.write_matrix")].sum())
    out["cache.misses"] = float((amount[loc] == 1.0).sum())
    reads = mask("cache.read_matrix", "cache.read_sidecar")
    out["cache.read_s"] = float(duration[reads].sum())
    out["cache.bytes_read"] = float(amount[reads].sum())
    out["cache.hits"] = float((amount[loc] == 0.0).sum())

    out["graph_select.kmedoids_s"] = busy("graph_select.kmedoids")
    out["graph_select.exchanges"] = float(amount[mask("graph_select.kmedoids")].sum())
    out["graph_select.dense_matrix_calls"] = calls("graph_select.dense_matrix")
    out["graph_select.dense_matrix_s"] = busy("graph_select.dense_matrix")
    out["graph_select.nearest_medoid_s"] = busy("graph_select.nearest_medoid")

    build = mask("node_select.build_candidates")
    kept, generated = amount[build].sum(), amount2[build].sum()
    out["node_select.build_candidates_s"] = float(duration[build].sum())
    out["node_select.select_subset_s"] = busy("node_select.select_subset")
    select = mask("node_select.select_subset")
    out["node_select.candidates_per_graph"] = (
        float(amount[select].mean()) if select.any() else 0.0)
    out["node_select.dedup_ratio"] = float(kept / generated) if generated else 0.0

    norms = mask("treenorm.tree_norm")
    norm_s = float(duration[norms].sum())
    out["treenorm.calls"] = float(norms.sum())
    out["treenorm.s"] = norm_s
    out["treenorm.edge_levels_per_s"] = float(amount[norms].sum() / norm_s) if norm_s else 0.0

    out["graphs.induced_subgraph_calls"] = calls("graphs.induced_subgraph")
    out["graphs.induced_subgraph_s"] = busy("graphs.induced_subgraph")
    out["gnn.forward_calls"] = calls("gnn.gin_forward")
    out["gnn.forward_s"] = busy("gnn.gin_forward")
    out["gnn.lipschitz_s"] = busy("gnn.layer_lipschitz")
    out["graphs.load_jsonl_s"] = busy("graphs.load_jsonl")
    out["graphs.fingerprint_s"] = busy("graphs.dataset_fingerprint")
    out["cli.self_s"] = float(own[mask("cli.main")].sum())
    return out
