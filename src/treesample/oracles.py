"""Reference routines ("oracles") that the fast paths are checked against.

Each one computes its quantity the literal way, for small inputs only: the
tree mover's distance on materialized computation trees, matching values
on validated input, matchings by lexicographic refinement or full
enumeration, medoid sets and node subsets by enumerating every candidate,
and the ERM loss one scalar at a time.  Tests and demos use them; no
production module imports this one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import TmdConfig
from .errors import ConfigError, DatasetError, ScaleLimitError
from .graph_select import Selection, cluster_sizes, medoids_objective
from .graphs import Graph, empty_graph
from .node_select import NodeSubsample
from .tmd import DistanceMatrix
from .treenorm import feature_norms, subset_tree_norm_sweep, tree_norm

_BRUTE_LIMIT = 9
_NAIVE_NODE_LIMIT = 12
_NAIVE_DEPTH_LIMIT = 4
_BRUTE_SUBSET_LIMIT = 100_000


_perm_cache: dict[int, np.ndarray] = {}


def _permutations(q: int) -> np.ndarray:
    """All permutations of ``range(q)`` in lexicographic order, one per row."""
    if q not in _perm_cache:
        _perm_cache[q] = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    return _perm_cache[q]


def _check_square(cost: np.ndarray) -> np.ndarray:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if c.size and not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")
    return c


def matching_value(cost: np.ndarray) -> float:
    """Minimum total cost over perfect matchings of a square cost matrix.

    The plain sum of matched entries, with no normalization factor, summed
    with ``math.fsum``; a non-square or non-finite matrix raises
    ``ValueError``.
    """
    c = _check_square(cost)
    q = c.shape[0]
    if q == 0:
        return 0.0
    rows, cols = linear_sum_assignment(c)
    return math.fsum(c[rows, cols])


@dataclass(frozen=True)
class MatchingResult:
    """Optimal assignment ``assignment[row] = col`` and its total cost."""

    total_cost: float
    assignment: tuple[int, ...]


def min_cost_matching(cost: np.ndarray) -> MatchingResult:
    """Solve the assignment problem on a square cost matrix.

    Among all optimal permutations the lexicographically smallest assignment
    vector is returned.  Optimality of a candidate prefix is tested by exact
    comparison of ``fsum`` totals, which is tie-safe because ``fsum`` rounds
    the true real sum once.
    """
    c = _check_square(cost)
    q = c.shape[0]
    if q == 0:
        return MatchingResult(0.0, ())
    rows, cols = linear_sum_assignment(c)
    best = math.fsum(c[rows, cols])

    assignment: list[int] = []
    free_cols = list(range(q))
    prefix: list[float] = []
    for row in range(q):
        chosen = None
        for col in free_cols:
            remaining = [x for x in free_cols if x != col]
            tail_entries: list[float] = []
            if remaining:
                sub = c[np.ix_(range(row + 1, q), remaining)]
                r, s = linear_sum_assignment(sub)
                tail_entries = list(sub[r, s])
            total = math.fsum(prefix + [c[row, col]] + tail_entries)
            if total == best:
                chosen = col
                break
        if chosen is None:  # cannot happen for finite inputs
            raise RuntimeError("assignment refinement lost the optimum")
        assignment.append(chosen)
        prefix.append(c[row, chosen])
        free_cols.remove(chosen)
    return MatchingResult(best, tuple(assignment))


def brute_force_matching(cost: np.ndarray) -> MatchingResult:
    """Exhaustive assignment oracle for matrices up to 9 x 9.

    Scans permutations in lexicographic order; ties on the exact optimal
    value resolve to the first (smallest) permutation.
    """
    c = _check_square(cost)
    q = c.shape[0]
    if q == 0:
        return MatchingResult(0.0, ())
    if q > _BRUTE_LIMIT:
        raise ScaleLimitError(f"brute_force_matching supports q <= {_BRUTE_LIMIT}, got {q}")
    perms = _permutations(q)
    totals = c[np.arange(q), perms].sum(axis=1)
    # two-stage argmin: cheap vectorized sums locate near-optimal rows, then
    # fsum re-evaluation makes the final comparison exact
    near = np.flatnonzero(totals <= totals.min() + 1e-9)
    exact = [math.fsum(c[np.arange(q), perms[i]]) for i in near]
    best = min(exact)
    for idx, val in zip(near, exact):
        if val == best:
            return MatchingResult(best, tuple(int(x) for x in perms[idx]))
    raise RuntimeError("unreachable")


def _padded_matching(block: np.ndarray, row_blanks: np.ndarray,
                     col_blanks: np.ndarray) -> float:
    """Min-cost matching of two multisets after padding the smaller with blanks.

    ``block[x, y]`` is the cost of matching row-item x to column-item y;
    ``row_blanks[x]`` / ``col_blanks[y]`` are the costs against a blank.
    """
    ra, cb = block.shape
    if ra == 0 and cb == 0:
        return 0.0
    if ra == 0:
        return math.fsum(col_blanks)
    if cb == 0:
        return math.fsum(row_blanks)
    q = max(ra, cb)
    c = np.zeros((q, q))
    c[:ra, :cb] = block
    if cb < q:
        c[:ra, cb:] = row_blanks[:, None]
    if ra < q:
        c[ra:, :cb] = col_blanks[None, :]
    return matching_value(c)


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


def _subtree_blank_cost(t: RootedTree, i: int, cfg: TmdConfig,
                        memo: dict[int, float]) -> float:
    """TD between the subtree rooted at ``i`` and a blank tree."""
    if i in memo:
        return memo[i]
    depth = int(t.subtree_depths()[i])
    val = float(feature_norms(t.features[i:i + 1], cfg.feature_norm)[0])
    kids = t.children()[i]
    if depth > 1 and kids:
        val += cfg.level_weight(depth - 1) * math.fsum(
            _subtree_blank_cost(t, k, cfg, memo) for k in kids)
    memo[i] = val
    return val


def _subtree_distance(ta: RootedTree, i: int, tb: RootedTree, j: int,
                      cfg: TmdConfig, memo_a: dict, memo_b: dict) -> float:
    da = int(ta.subtree_depths()[i])
    db = int(tb.subtree_depths()[j])
    base = float(feature_norms(ta.features[i:i + 1] - tb.features[j:j + 1],
                               cfg.feature_norm)[0])
    d = max(da, db)
    if d <= 1:
        return base
    ca = ta.children()[i]
    cb = tb.children()[j]
    block = np.zeros((len(ca), len(cb)))
    for x, a in enumerate(ca):
        for y, b in enumerate(cb):
            block[x, y] = _subtree_distance(ta, a, tb, b, cfg, memo_a, memo_b)
    row_blanks = np.array([_subtree_blank_cost(ta, a, cfg, memo_a) for a in ca])
    col_blanks = np.array([_subtree_blank_cost(tb, b, cfg, memo_b) for b in cb])
    return base + cfg.level_weight(d - 1) * _padded_matching(block, row_blanks, col_blanks)


def tree_distance(ta: RootedTree, tb: RootedTree, cfg: TmdConfig) -> float:
    """Recursive distance between two rooted trees.

    Root feature distance plus, when the deeper tree has depth d > 1,
    ``w(d - 1)`` times the min-cost matching between the child subtree
    multisets after blank padding.
    """
    if max(ta.depth, tb.depth) > cfg.depth:
        raise ConfigError(
            f"tree depth {max(ta.depth, tb.depth)} exceeds configured depth {cfg.depth}")
    if ta.features.shape[1] != tb.features.shape[1]:
        raise DatasetError(
            f"feature dimensions differ: {ta.features.shape[1]} vs {tb.features.shape[1]}")
    return _subtree_distance(ta, 0, tb, 0, cfg, {}, {})


def tree_blank_distance(t: RootedTree, cfg: TmdConfig) -> float:
    """Distance between a rooted tree and the blank single-node tree."""
    if t.depth > cfg.depth:
        raise ConfigError(f"tree depth {t.depth} exceeds configured depth {cfg.depth}")
    return _subtree_blank_cost(t, 0, cfg, {})


def tmd_naive(ga: Graph, gb: Graph, cfg: TmdConfig) -> float:
    """Oracle tree mover's distance via materialized computation trees.

    Restricted to graphs of at most 12 nodes and depth at most 4.
    """
    if max(ga.node_count, gb.node_count) > _NAIVE_NODE_LIMIT:
        raise ScaleLimitError(
            f"tmd_naive supports at most {_NAIVE_NODE_LIMIT} nodes per graph")
    if cfg.depth > _NAIVE_DEPTH_LIMIT:
        raise ScaleLimitError(f"tmd_naive supports depth <= {_NAIVE_DEPTH_LIMIT}")
    na, nb = ga.node_count, gb.node_count
    if na == 0 and nb == 0:
        return 0.0
    if na and nb and ga.feature_dim != gb.feature_dim:
        raise DatasetError(
            f"feature dimensions differ: {ga.feature_dim} vs {gb.feature_dim}")
    trees_a = [computation_tree(ga, v, cfg.depth) for v in range(na)]
    trees_b = [computation_tree(gb, v, cfg.depth) for v in range(nb)]
    memos_a = [{} for _ in trees_a]
    memos_b = [{} for _ in trees_b]
    block = np.zeros((na, nb))
    for i, ta in enumerate(trees_a):
        for j, tb in enumerate(trees_b):
            block[i, j] = _subtree_distance(ta, 0, tb, 0, cfg, memos_a[i], memos_b[j])
    row_blanks = np.array([_subtree_blank_cost(t, 0, cfg, m)
                           for t, m in zip(trees_a, memos_a)])
    col_blanks = np.array([_subtree_blank_cost(t, 0, cfg, m)
                           for t, m in zip(trees_b, memos_b)])
    return _padded_matching(block, row_blanks, col_blanks)


def tree_norm_naive(g: Graph, cfg: TmdConfig) -> float:
    """Oracle tree norm: naive distance to the empty graph."""
    return tmd_naive(g, empty_graph(max(1, g.feature_dim)), cfg)


def brute_force_medoids(d: DistanceMatrix, k: int) -> Selection:
    """Exact medoid optimum by enumerating all k-subsets (C(n, k) <= 1e6).

    Ties resolve to the lexicographically smallest index set.
    """
    n = d.n
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > 1_000_000:
        raise ConfigError(f"C({n},{k}) exceeds the enumeration limit")
    full = d.full()
    best_set, best_obj = None, np.inf
    for combo in itertools.combinations(range(n), k):
        obj = float(full[:, combo].min(axis=1).mean())
        if obj < best_obj:
            best_set, best_obj = combo, obj
    idx = list(best_set)
    return Selection("brute-medoids", k, 0, idx, cluster_sizes(d, idx),
                     medoids_objective(d, idx))


def brute_force_select(g: Graph, k: int, cfg: TmdConfig,
                       graph_id: int = 0) -> NodeSubsample:
    """Exact best k-subset by enumeration (C(n, k) <= 1e5).

    Ties resolve to the lexicographically smallest subset, matching
    :func:`~treesample.node_select.select_subsets`.
    ``itertools.combinations`` streams through
    :func:`~treesample.treenorm.subset_tree_norm_sweep` chunk by chunk, so no
    subgraph is built and only the C(n, k) values are kept.
    """
    n = g.node_count
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > _BRUTE_SUBSET_LIMIT:
        raise ScaleLimitError(f"C({n},{k}) exceeds the enumeration limit")
    full = tree_norm(g, cfg)
    vals = subset_tree_norm_sweep(g, itertools.combinations(range(n), k), [cfg])[0]
    # argmax keeps the first maximum, so ties go to the lexicographically
    # first subset
    i = int(np.argmax(vals))
    best = next(itertools.islice(itertools.combinations(range(n), k), i, None))
    val = float(vals[i])
    return NodeSubsample(graph_id, best, full, val, full - val, "brute")


def tree_norm_decision(g: Graph, k: int, tau: float, cfg: TmdConfig) -> bool:
    """Does some k-node induced subgraph reach tree norm >= tau?  (Oracle.)"""
    return brute_force_select(g, k, cfg).tree_norm_sub >= tau


def abs_clipped_loss(pred: np.ndarray, label: float, clip: float = 10.0) -> float:
    """|prediction - label| clipped to [0, clip]; 1-Lipschitz in the prediction.

    ``gnn.finite_erm_sweep`` computes this loss for whole arrays at once."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    if pred.shape != (1,):
        raise ConfigError(f"loss needs a scalar readout, got shape {pred.shape}")
    return float(min(abs(float(pred[0]) - float(label)), clip))
