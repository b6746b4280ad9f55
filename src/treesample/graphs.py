"""Attributed graphs, datasets, computation trees, and file I/O.

Graphs are undirected, with a float feature vector per node.  Edges are kept
as a sorted list of unordered pairs; adjacency structure is built lazily the
first time a traversal needs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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
                 "_neighbors", "_edge_u", "_edge_v", "_tmd_plan")

    def __init__(self, node_count, edges, features, label=None):
        self.node_count = int(node_count)
        self.edges = sorted((u, v) if u <= v else (v, u) for u, v in edges)
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim == 1 and feats.size == 0:
            feats = feats.reshape(0, 1)
        self.features = feats
        self.features.setflags(write=False)
        self.label = None if label is None else int(label)
        self._neighbors = None
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
        """Sorted array of neighbors of ``v``."""
        if self._neighbors is None:
            eu, ev = self.edge_arrays()
            adj = [[] for _ in range(self.node_count)]
            for u, w in zip(eu.tolist(), ev.tolist()):
                adj[u].append(w)
                adj[w].append(u)
            self._neighbors = [np.array(sorted(a), dtype=np.int64) for a in adj]
        return self._neighbors[v]

    def degrees(self) -> np.ndarray:
        eu, ev = self.edge_arrays()
        return np.bincount(np.concatenate([eu, ev]), minlength=self.node_count)

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
class RootedTree:
    """Rooted tree with a feature vector per node.  Node 0 is the root.

    ``parents[i]`` is the parent index of node ``i`` (-1 for the root).
    ``depth`` counts levels: a single node has depth 1.
    """

    features: np.ndarray
    parents: np.ndarray
    depth: int
    _children: list | None = field(default=None, repr=False, compare=False)
    _sub_depth: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return int(self.parents.shape[0])

    def children(self) -> list[list[int]]:
        if self._children is None:
            ch = [[] for _ in range(self.node_count)]
            for i in range(1, self.node_count):
                ch[int(self.parents[i])].append(i)
            self._children = ch
        return self._children

    def subtree_depths(self) -> np.ndarray:
        """Depth of the subtree rooted at each node (leaves have depth 1)."""
        if self._sub_depth is None:
            d = np.ones(self.node_count, dtype=np.int64)
            # children always have larger indices, so one reverse sweep suffices
            for i in range(self.node_count - 1, 0, -1):
                p = int(self.parents[i])
                if d[p] <= d[i]:
                    d[p] = d[i] + 1
            self._sub_depth = d
        return self._sub_depth


def blank_tree(feature_dim: int) -> RootedTree:
    """Single-node tree with an all-zero feature vector (the padding element)."""
    return RootedTree(np.zeros((1, feature_dim)), np.array([-1], dtype=np.int64), 1)


def computation_tree(g: Graph, v: int, depth: int) -> RootedTree:
    """Unroll the depth-``depth`` computation tree of node ``v``.

    Level 1 is ``v`` itself; every node at level ``d < depth`` gets one child
    per graph-neighbor (revisits allowed).  Children are attached in ascending
    neighbor order.
    """
    if not (0 <= v < g.node_count):
        raise DatasetError(f"computation_tree: node {v} outside 0..{g.node_count - 1}")
    if depth < 1:
        raise DatasetError(f"computation_tree: depth must be >= 1, got {depth}")
    rows = [v]
    parents = [-1]
    frontier = [(0, v)]
    reached = 1
    for level in range(2, depth + 1):
        nxt = []
        for tnode, gnode in frontier:
            for u in g.neighbors(gnode):
                idx = len(parents)
                parents.append(tnode)
                rows.append(int(u))
                nxt.append((idx, int(u)))
        if not nxt:
            break
        reached = level
        frontier = nxt
    return RootedTree(np.asarray(g.features[rows], dtype=np.float64),
                      np.asarray(parents, dtype=np.int64), reached)


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            try:
                g = Graph(rec["n"], rec["edges"], rec["features"], rec.get("label"))
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{lineno}: bad record ({exc})") from exc
            _require_valid(g, f"{path}:{lineno}")
            graphs.append(g)
    try:
        return make_dataset(graphs, name=str(path))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


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

    with open(p("graph_indicator"), "r", encoding="utf-8") as fh:
        indicator = [int(line.strip()) for line in fh if line.strip()]
    total_nodes = len(indicator)
    if total_nodes == 0:
        return Dataset([], 0, name)

    n_graphs = max(indicator)
    if min(indicator) < 1:
        raise DatasetError(f"{p('graph_indicator')}: graph ids must be >= 1")

    attr_path = p("node_attributes")
    if os.path.exists(attr_path):
        rows = []
        with open(attr_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append([float(tok) for tok in line.replace(",", " ").split()])
                except ValueError as exc:
                    raise DatasetError(f"{attr_path}:{lineno}: bad attribute row") from exc
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
        with open(labels_path, "r", encoding="utf-8") as fh:
            labels = [int(float(line.strip())) for line in fh if line.strip()]
        if len(labels) != n_graphs:
            raise DatasetError(f"{labels_path}: {len(labels)} labels for {n_graphs} graphs")

    # node ids are 1-based and grouped per graph by the indicator
    local_index = np.zeros(total_nodes, dtype=np.int64)
    counts = [0] * (n_graphs + 1)
    for node, gid in enumerate(indicator):
        local_index[node] = counts[gid]
        counts[gid] += 1

    edge_sets = [set() for _ in range(n_graphs + 1)]
    with open(p("A"), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                a, b = (int(tok) for tok in line.replace(",", " ").split())
            except ValueError as exc:
                raise DatasetError(f"{p('A')}:{lineno}: bad edge row") from exc
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
