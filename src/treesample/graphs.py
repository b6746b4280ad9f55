"""Attributed graphs, datasets, and file I/O.

Graphs are simple and undirected, with a finite float feature vector per
node.  ``Graph()`` checks this once, a built graph cannot change, and the
loaders only say where a rejected graph came from.  Edges are stored once, as
one read-only array of sorted (min, max) rows; traversals read its CSR.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, _is_int, _require_int


class Graph:
    """Undirected simple attributed graph, checked once and then immutable.

    Parameters
    ----------
    node_count : int
        Number of nodes; nodes are the integers ``0 .. node_count - 1``.
    edges : iterable of (int, int)
        Undirected edges, stored as one read-only int64 array of (min, max) rows.
    features : array-like, shape (node_count, p)
        One finite feature row per node, stored as a read-only float64 copy.
    label : int or None
        Optional graph-level label.

    Raises
    ------
    DatasetError
        Naming every broken rule: ``node_count``, the edge endpoints and the
        label are integers (Python or numpy; not bool, float or str); the
        endpoints lie in ``0 .. node_count - 1``, with no self-loop and no
        edge twice in either order; the features are ``node_count`` finite
        rows.
    """

    __slots__ = ("_n", "_edges", "_features", "_label", "_csr", "_key")

    def __init__(self, node_count, edges, features, label=None):
        problems = []
        n = int(node_count) if _is_int(node_count) and node_count >= 0 else None
        if n is None:
            problems.append(f"node_count must be an integer >= 0, got {node_count!r}")
        pairs = _simple_edges(edges, n, problems)
        # row-major, so a row's feature norm sums in the same order in every
        # graph that holds the row (an induced subgraph copies rows row-major);
        # always a copy, so freezing it leaves the caller's array writable
        try:
            feats = np.array(features, dtype=np.float64, order="C")
        except (TypeError, ValueError, OverflowError) as exc:
            problems.append(f"features are not a numeric array ({exc})")
        else:
            if feats.ndim == 1 and feats.size == 0:
                feats = feats.reshape(0, 1)
            if feats.ndim != 2:
                problems.append(f"features must be 2-D, got ndim={feats.ndim}")
            elif n is not None and feats.shape[0] != n:
                problems.append(f"feature rows ({feats.shape[0]}) != node_count ({n})")
            elif n and not feats.shape[1]:
                problems.append("feature dimension must be >= 1")
            if np.count_nonzero(np.isfinite(feats)) != feats.size:
                problems.append("features contain non-finite values")
        if label is not None and not _is_int(label):
            problems.append(f"label {label!r} is not an integer")
        if problems:
            raise DatasetError("; ".join(problems))
        # endpoints are below n, the feature row count, so int64 holds them
        self._edges = np.fromiter(itertools.chain.from_iterable(pairs),
                                  dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
        self._edges.setflags(write=False)
        self._n = n
        self._features = feats
        self._features.setflags(write=False)
        self._label = None if label is None else int(label)
        self._csr = None
        # the content key that ==, hash and tmd's pair order read; + 0.0 makes
        # -0.0 the 0.0 it equals, and the width keeps 0-node graphs apart
        self._key = (n, len(pairs), self._edges.tobytes(), (feats + 0.0).tobytes(), feats.shape[1])

    # read-only, so the cached CSR never goes stale
    node_count = property(lambda self: self._n)
    features = property(lambda self: self._features)
    label = property(lambda self: self._label)
    feature_dim = property(lambda self: self._features.shape[1])
    edge_count = property(lambda self: self._edges.shape[0])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """A fresh sorted list of the (min, max) edges as Python ints."""
        return list(map(tuple, self._edges.tolist()))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted read-only array of neighbors of ``v``, checked by
        :func:`_node_array`."""
        v, = _node_array((v,), self.node_count, "neighbors")
        indptr, indices = self.csr()
        return indices[indptr[v]:indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr()[0])

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency ``(indptr, indices)``, built once from
        the edge array: ``indices[indptr[v]:indptr[v + 1]]`` are the
        neighbors of ``v`` in ascending order."""
        if self._csr is None:
            src, dst = np.concatenate([self._edges, self._edges[:, ::-1]]).T
            indices = dst[np.lexsort((dst, src))]
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.node_count), out=indptr[1:])
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the edge array's columns ``(u, v)``, ``u < v``."""
        return self._edges[:, 0], self._edges[:, 1]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key == other._key and self.label == other.label

    def __hash__(self):
        return hash((self._key, self.label))

    def __repr__(self):
        return (f"Graph(n={self.node_count}, m={self.edge_count}, "
                f"p={self.feature_dim}, label={self.label})")


def _node_array(nodes, n: int, where: str) -> np.ndarray:
    """``nodes`` as an int64 array, the one check of node indices: the first
    node that is not an integer (Python or numpy; not bool, float or str,
    which ``int()`` or ``np.fromiter`` would truncate or parse) or lies
    outside ``0 .. n - 1`` raises :class:`DatasetError` naming it and ``where``."""
    nodes = list(nodes)
    # the type set is the fast path: a list of Python ints has no bad type
    if set(map(type, nodes)) <= {int} or all(map(_is_int, nodes)):
        try:
            arr = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
            if not arr.size or (arr.min() >= 0 and arr.max() < n):
                return arr
        except OverflowError:  # past the int64 range, so outside the graph
            pass
    bad = next(v for v in nodes if not (_is_int(v) and 0 <= v < n))
    raise DatasetError(f"{where}: node {bad!r} is not an integer" if not _is_int(bad)
                       else f"{where}: node {int(bad)} outside 0..{n - 1}")


def _simple_edges(edges, n, problems: list) -> list[tuple[int, int]]:
    """The integer pairs in ``edges`` as a sorted list of (min, max) pairs of
    Python ints.  Names in ``problems`` each edge that is not a pair of
    integers (in input order), then each that has an endpoint outside ``0 ..
    n - 1`` (only the low end when ``n`` is None), is a self-loop, or repeats
    an earlier edge (in sorted order)."""
    try:
        edges = iter(edges)
    except TypeError:  # not iterable: one malformed edge
        edges = [edges]
    pairs = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            u = v = None
        if type(u) is not int or type(v) is not int:
            if not (_is_int(u) and _is_int(v)):
                problems.append(f"edge {e!r} is not a pair of integers")
                continue
            u, v = int(u), int(v)
        pairs.append((u, v) if u <= v else (v, u))
    pairs.sort()
    top = math.inf if n is None else n
    prev = None
    for e in pairs:
        u, v = e
        if u < 0 or v >= top:
            problems.append(f"edge ({u},{v}) has an endpoint outside 0..{top - 1}")
        elif u == v:
            problems.append(f"edge ({u},{v}) is a self-loop")
        elif e == prev:
            problems.append(f"duplicate edge ({u},{v})")
        prev = e
    return pairs


def empty_graph(feature_dim: int = 1) -> Graph:
    """Graph with no nodes (used as the reference point for tree norms)."""
    return Graph(0, [], np.zeros((0, _require_int(feature_dim, "feature_dim", 1, None))))


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Induced subgraph on ``nodes`` (checked by :func:`_node_array`),
    relabeled to 0.. in ascending original order."""
    kept = np.unique(_node_array(nodes, g.node_count, "induced_subgraph")).tolist()
    pos = {v: i for i, v in enumerate(kept)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(kept), edges, g.features[kept], label=g.label)


@dataclass
class Dataset:
    """Ordered collection of graphs (each checked when it was built) sharing
    one feature dimension, set by the graphs with nodes: graphs of two widths
    raise :class:`DatasetError`, and a 0-node graph, which has no row to show
    one, is rebuilt with ``(0, dim)`` features."""

    graphs: list[Graph]
    feature_dim = property(lambda self: self.graphs[0].feature_dim if self.graphs else 0)

    def __post_init__(self):
        graphs = list(self.graphs)
        dims = ({g.feature_dim for g in graphs if g.node_count}
                or {g.feature_dim for g in graphs})
        if len(dims) > 1:
            raise DatasetError(f"graphs disagree on feature dimension: {sorted(dims)}")
        dim = dims.pop() if dims else 0
        self.graphs = [g if g.feature_dim == dim else Graph(0, [], np.zeros((0, dim)), g.label)
                       for g in graphs]

    def __len__(self):
        return len(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]

    def __iter__(self):
        return iter(self.graphs)


def make_dataset(graphs: list[Graph]) -> Dataset:
    """``Dataset(graphs)``, which checks their shared feature dimension."""
    return Dataset(graphs)


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
            graphs.append(Graph(rec["n"], rec["edges"], rec["features"],
                                rec.get("label")))
        except (KeyError, TypeError, DatasetError) as exc:  # TypeError: not a JSON object
            raise DatasetError(f"{path}:{lineno}: bad record ({exc})") from exc
    try:
        return make_dataset(graphs)
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


def _int_label(line: str) -> int:
    """An integer graph label, also when written as a float such as ``1.0``;
    any other value raises ``ValueError``."""
    try:
        return int(line)
    except ValueError:
        value = float(line)
        if not value.is_integer():
            raise
        return int(value)


def _float_row(line: str) -> list[float]:
    return [float(tok) for tok in line.replace(",", " ").split()]


def save_jsonl(ds: Dataset, path) -> None:
    """Serialize a dataset in the JSON-lines schema read by :func:`load_jsonl`."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, g in enumerate(ds):
            rec = {
                "id": i,
                "n": g.node_count,
                "edges": g._edges.tolist(),
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
        return make_dataset([])

    n_graphs = max(indicator)
    if min(indicator) < 1:
        raise DatasetError(f"{p('graph_indicator')}: graph ids must be >= 1")
    # every graph id sizes the per-graph lists below, so bound it first
    if n_graphs > total_nodes:
        raise DatasetError(f"{p('graph_indicator')}: graph id {n_graphs} "
                           f"exceeds the node count {total_nodes}")
    # node ids are 1-based and grouped per graph by the indicator
    node_rows = [[] for _ in range(n_graphs + 1)]
    local_index = []
    for node, gid in enumerate(indicator):
        local_index.append(len(node_rows[gid]))
        node_rows[gid].append(node)
    if [] in node_rows[1:]:  # a gap would load as a graph no file describes
        raise DatasetError(f"{p('graph_indicator')}: graph id "
                           f"{node_rows.index([], 1)} owns no node")

    attr_path = p("node_attributes")
    if os.path.exists(attr_path):
        # Graph() checks the row widths within a graph, make_dataset across graphs
        attrs = [row for _, row in _parse_lines(attr_path, _float_row, "attribute row")]
        if len(attrs) != total_nodes:
            raise DatasetError(
                f"{attr_path}: {len(attrs)} attribute rows for {total_nodes} nodes")
    else:
        attrs = [[1.0]] * total_nodes

    labels_path = p("graph_labels")
    labels = None
    if os.path.exists(labels_path):
        labels = [y for _, y in _parse_lines(labels_path, _int_label, "graph label")]
        if len(labels) != n_graphs:
            raise DatasetError(f"{labels_path}: {len(labels)} labels for {n_graphs} graphs")

    edge_sets = [set() for _ in range(n_graphs + 1)]
    for lineno, (a, b) in _parse_lines(p("A"), _int_pair, "edge row"):
        if not (1 <= a <= total_nodes and 1 <= b <= total_nodes):
            raise DatasetError(f"{p('A')}:{lineno}: node id outside 1..{total_nodes}")
        ga, gb = indicator[a - 1], indicator[b - 1]
        if ga != gb:
            raise DatasetError(f"{p('A')}:{lineno}: edge ({a},{b}) crosses graphs {ga},{gb}")
        u, v = local_index[a - 1], local_index[b - 1]
        edge_sets[ga].add((min(u, v), max(u, v)))

    graphs = []
    for gid, rows in enumerate(node_rows[1:], start=1):
        try:
            graphs.append(Graph(len(rows), edge_sets[gid], [attrs[i] for i in rows],
                                label=None if labels is None else labels[gid - 1]))
        except DatasetError as exc:
            raise DatasetError(f"{name} graph {gid}: {exc}") from exc
    return make_dataset(graphs)


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 over a canonical byte serialization of the dataset contents;
    raw float64 bytes, not ``Graph._key`` (so -0.0 stays apart from 0.0), so
    that the caches already written keep hitting."""
    h = hashlib.sha256()
    h.update(f"graphs={len(ds)};dim={ds.feature_dim}".encode())
    for g in ds:
        h.update(f"|n={g.node_count};label={g.label};edges=".encode())
        h.update(g._edges.tobytes())  # the bytes of np.asarray(g.edges, np.int64)
        h.update(b";features=")
        h.update(np.ascontiguousarray(g.features, dtype="<f8").tobytes())
    return h.hexdigest()
