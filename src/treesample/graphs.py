"""Attributed graphs, datasets, and file I/O.

Graphs are undirected, with a float feature vector per node.  Edges are kept
as a sorted list of unordered pairs (for I/O, equality and fingerprints);
traversals read one CSR adjacency built from them on first use.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError


class Graph:
    """Undirected attributed graph.

    Parameters
    ----------
    node_count : int
        Number of nodes; nodes are the integers ``0 .. node_count - 1``.
    edges : iterable of (int, int)
        Undirected edges.  Stored sorted with each pair as (min, max).
    features : array-like, shape (node_count, p)
        One feature row per node, float64.
    label : int or None
        Optional graph-level label.
    """

    __slots__ = ("node_count", "edges", "features", "label",
                 "_csr", "_edge_u", "_edge_v", "_tmd_plan")

    def __init__(self, node_count, edges, features, label=None):
        self.node_count = int(node_count)
        self.edges = sorted((u, v) if u <= v else (v, u) for u, v in edges)
        # row-major, so a row's feature norm sums in the same order in every
        # graph that holds the row (an induced subgraph copies rows row-major);
        # always a copy, so freezing it leaves the caller's array writable
        feats = np.array(features, dtype=np.float64, order="C")
        if feats.ndim == 1 and feats.size == 0:
            feats = feats.reshape(0, 1)
        self.features = feats
        self.features.setflags(write=False)
        self.label = None if label is None else int(label)
        self._csr = None
        self._edge_u = None
        self._edge_v = None
        # last (TmdConfig, plan) built by tmd for this graph
        self._tmd_plan = None

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1]) if self.features.ndim == 2 else 0

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only array of neighbors of ``v``."""
        indptr, indices = self.csr()
        return indices[indptr[v]:indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr()[0])

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency ``(indptr, indices)``, built once from
        :meth:`edge_arrays`: ``indices[indptr[v]:indptr[v + 1]]`` are the
        neighbors of ``v`` in ascending order."""
        if self._csr is None:
            eu, ev = self.edge_arrays()
            src = np.concatenate([eu, ev])
            dst = np.concatenate([ev, eu])
            indices = dst[np.lexsort((dst, src))]
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.node_count), out=indptr[1:])
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two parallel int arrays (for vectorized traversal).

        Each edge is stored as (min, max).  Every adjacency user goes through
        here, so a self-loop or an endpoint outside ``0..node_count - 1``
        raises :class:`DatasetError` instead of indexing out of range.
        """
        if self._edge_u is None:
            arr = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
            eu, ev = arr[:, 0].copy(), arr[:, 1].copy()
            n = self.node_count
            # edges are stored as (min, max), so u >= 0 and v < n bound both ends
            if eu.size and (eu.min() < 0 or ev.max() >= n or (eu == ev).any()):
                i = int(np.flatnonzero((eu < 0) | (ev >= n) | (eu == ev))[0])
                raise DatasetError(
                    f"edge ({eu[i]},{ev[i]}) is a self-loop or has an endpoint "
                    f"outside 0..{n - 1}")
            self._edge_u, self._edge_v = eu, ev
        return self._edge_u, self._edge_v

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.edges == other.edges
                and self.features.shape == other.features.shape
                and np.array_equal(self.features, other.features)
                and self.label == other.label)

    def __hash__(self):
        return hash((self.node_count, tuple(self.edges), self.features.tobytes(), self.label))

    def __repr__(self):
        return (f"Graph(n={self.node_count}, m={self.edge_count}, "
                f"p={self.feature_dim}, label={self.label})")


def empty_graph(feature_dim: int = 1) -> Graph:
    """Graph with no nodes (used as the reference point for tree norms)."""
    return Graph(0, [], np.zeros((0, max(1, feature_dim))))


def validate(g: Graph) -> list[str]:
    """Return a list of invariant violations (empty list means valid)."""
    problems = []
    if g.node_count < 0:
        problems.append(f"node_count is negative ({g.node_count})")
    if g.features.ndim != 2:
        problems.append(f"features must be 2-D, got ndim={g.features.ndim}")
    else:
        if g.features.shape[0] != g.node_count:
            problems.append(
                f"feature rows ({g.features.shape[0]}) != node_count ({g.node_count})")
        if g.node_count > 0 and g.features.shape[1] < 1:
            problems.append("feature dimension must be >= 1")
        if not np.isfinite(g.features).all():
            problems.append("features contain non-finite values")
    seen = set()
    for u, v in g.edges:
        if not (0 <= u < g.node_count and 0 <= v < g.node_count):
            problems.append(f"edge ({u},{v}) has an endpoint outside 0..{g.node_count - 1}")
            continue
        if u == v:
            problems.append(f"self-loop at node {u}")
        if (u, v) in seen:
            problems.append(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    return problems


def _require_valid(g: Graph, where: str) -> Graph:
    problems = validate(g)
    if problems:
        raise DatasetError(f"{where}: " + "; ".join(problems))
    return g


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Induced subgraph on ``nodes``, relabeled to 0.. in ascending original order."""
    kept = sorted(set(int(v) for v in nodes))
    for v in kept:
        if not (0 <= v < g.node_count):
            raise DatasetError(f"induced_subgraph: node {v} outside 0..{g.node_count - 1}")
    pos = {v: i for i, v in enumerate(kept)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    if kept:
        feats = g.features[kept]
    else:
        feats = np.zeros((0, max(1, g.feature_dim)))
    return Graph(len(kept), edges, feats, label=g.label)


@dataclass
class Dataset:
    """Ordered collection of graphs sharing one feature dimension."""

    graphs: list[Graph]
    feature_dim: int
    name: str = ""

    def __len__(self):
        return len(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]

    def __iter__(self):
        return iter(self.graphs)

    def labels(self) -> list[int | None]:
        return [g.label for g in self.graphs]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.feature_dim == other.feature_dim and self.name == other.name
                and self.graphs == other.graphs)


def make_dataset(graphs: list[Graph], name: str = "") -> Dataset:
    """Wrap validated graphs into a Dataset, checking the shared feature dim."""
    dims = {g.feature_dim for g in graphs}
    if len(dims) > 1:
        raise DatasetError(f"graphs disagree on feature dimension: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    return Dataset(list(graphs), dim, name)


def load_jsonl(path) -> Dataset:
    """Load a dataset from JSON-lines.

    Each line: ``{"id": int, "n": int, "edges": [[u,v],...],
    "features": [[...],...], "label": int|null}``.
    """
    graphs = []
    for lineno, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        try:
            _require_int_pairs(rec["edges"])
            g = Graph(rec["n"], rec["edges"], rec["features"], rec.get("label"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: an "n" or "label" of Infinity
            raise DatasetError(f"{path}:{lineno}: bad record ({exc})") from exc
        _require_valid(g, f"{path}:{lineno}")
        graphs.append(g)
    try:
        return make_dataset(graphs, name=str(path))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def _text_lines(path):
    """Numbered lines of a UTF-8 text file, split as ``open(path,
    encoding="utf-8")`` splits them.  Bytes that are not UTF-8 raise
    :class:`DatasetError` naming their line, not ``UnicodeDecodeError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte "
            f"{exc.start})") from exc
    return enumerate(io.StringIO(text, newline=None), start=1)


def _parse_lines(path, parse, what: str) -> list:
    """``(lineno, parse(line))`` for every non-blank line of ``path``; a line
    that ``parse`` rejects raises :class:`DatasetError`."""
    out = []
    for lineno, line in _text_lines(path):
        if line.strip():
            try:
                out.append((lineno, parse(line)))
            except (ValueError, OverflowError) as exc:
                raise DatasetError(f"{path}:{lineno}: bad {what}") from exc
    return out


def _int_pair(line: str) -> tuple[int, int]:
    a, b = (int(tok) for tok in line.replace(",", " ").split())
    return a, b


def _float_row(line: str) -> list[float]:
    return [float(tok) for tok in line.replace(",", " ").split()]


def _require_int_pairs(edges) -> None:
    # JSON "0", 1.5 and true all pass through Graph() unchecked
    for e in edges:
        if len(e) != 2 or any(type(x) is not int for x in e):
            raise ValueError(f"edge {e!r} is not a pair of integers")


def save_jsonl(ds: Dataset, path) -> None:
    """Serialize a dataset in the JSON-lines schema read by :func:`load_jsonl`."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, g in enumerate(ds):
            rec = {
                "id": i,
                "n": g.node_count,
                "edges": [[u, v] for u, v in g.edges],
                "features": g.features.tolist(),
                "label": g.label,
            }
            fh.write(json.dumps(rec) + "\n")


def load_tu(directory, name: str) -> Dataset:
    """Load a dataset in the TU benchmark layout from ``directory``.

    Mandatory files: ``<name>_A.txt`` (1-based edge pairs) and
    ``<name>_graph_indicator.txt``.  Optional: ``<name>_node_attributes.txt``
    (defaults to a single 1.0 per node) and ``<name>_graph_labels.txt``.
    """
    import os

    def p(suffix):
        return os.path.join(directory, f"{name}_{suffix}.txt")

    for required in ("A", "graph_indicator"):
        if not os.path.exists(p(required)):
            raise FileNotFoundError(f"missing mandatory TU file: {p(required)}")

    indicator = [gid for _, gid in _parse_lines(p("graph_indicator"), int, "graph id")]
    total_nodes = len(indicator)
    if total_nodes == 0:
        return Dataset([], 0, name)

    n_graphs = max(indicator)
    if min(indicator) < 1:
        raise DatasetError(f"{p('graph_indicator')}: graph ids must be >= 1")
    # every graph id sizes the per-graph lists below, so bound it first
    if n_graphs > total_nodes:
        raise DatasetError(f"{p('graph_indicator')}: graph id {n_graphs} "
                           f"exceeds the node count {total_nodes}")

    attr_path = p("node_attributes")
    if os.path.exists(attr_path):
        rows = [row for _, row in _parse_lines(attr_path, _float_row, "attribute row")]
        if len(rows) != total_nodes:
            raise DatasetError(
                f"{attr_path}: {len(rows)} attribute rows for {total_nodes} nodes")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DatasetError(f"{attr_path}: ragged attribute rows (widths {sorted(widths)})")
        attrs = np.asarray(rows, dtype=np.float64)
    else:
        attrs = np.ones((total_nodes, 1))

    labels_path = p("graph_labels")
    labels = None
    if os.path.exists(labels_path):
        labels = [y for _, y in _parse_lines(
            labels_path, lambda line: int(float(line)), "graph label")]
        if len(labels) != n_graphs:
            raise DatasetError(f"{labels_path}: {len(labels)} labels for {n_graphs} graphs")

    # node ids are 1-based and grouped per graph by the indicator
    local_index = np.zeros(total_nodes, dtype=np.int64)
    counts = [0] * (n_graphs + 1)
    for node, gid in enumerate(indicator):
        local_index[node] = counts[gid]
        counts[gid] += 1

    edge_sets = [set() for _ in range(n_graphs + 1)]
    for lineno, (a, b) in _parse_lines(p("A"), _int_pair, "edge row"):
        if not (1 <= a <= total_nodes and 1 <= b <= total_nodes):
            raise DatasetError(f"{p('A')}:{lineno}: node id outside 1..{total_nodes}")
        ga, gb = indicator[a - 1], indicator[b - 1]
        if ga != gb:
            raise DatasetError(f"{p('A')}:{lineno}: edge ({a},{b}) crosses graphs {ga},{gb}")
        u, v = int(local_index[a - 1]), int(local_index[b - 1])
        edge_sets[ga].add((min(u, v), max(u, v)))

    graphs = []
    node_rows = [[] for _ in range(n_graphs + 1)]
    for node, gid in enumerate(indicator):
        node_rows[gid].append(node)
    for gid in range(1, n_graphs + 1):
        rows = node_rows[gid]
        g = Graph(len(rows), sorted(edge_sets[gid]), attrs[rows],
                  label=None if labels is None else labels[gid - 1])
        _require_valid(g, f"{name} graph {gid}")
        graphs.append(g)
    ds = make_dataset(graphs, name=name)
    return ds


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 over a canonical byte serialization of the dataset contents."""
    h = hashlib.sha256()
    h.update(f"graphs={len(ds)};dim={ds.feature_dim}".encode())
    for g in ds:
        h.update(f"|n={g.node_count};label={g.label};edges=".encode())
        h.update(np.asarray(g.edges, dtype=np.int64).tobytes())
        h.update(b";features=")
        h.update(np.ascontiguousarray(g.features, dtype="<f8").tobytes())
    return h.hexdigest()
