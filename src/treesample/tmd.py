"""Tree mover's distance between attributed graphs.

The distance matches the multisets of depth-L computation trees of two
graphs, using a recursive tree distance as the ground cost.  Mismatched
multiset sizes are padded with blank trees (a single node with an all-zero
feature vector), so graphs of different sizes compare directly.

Two routes are provided: ``tmd`` runs a bottom-up dynamic program over node
pairs (no trees are materialized), while ``tmd_naive`` unrolls the trees and
recurses on them literally.  The naive route is the correctness oracle and is
deliberately restricted to small inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, squareform

from .config import TmdConfig
from .errors import (ConfigError, DatasetError, NumericalOverflowError,
                     ScaleLimitError)
from .graphs import Dataset, Graph, RootedTree, computation_tree, empty_graph
from .matching import _permutations, matching_value
from .treenorm import feature_norms, tree_norm

_NAIVE_NODE_LIMIT = 12
_NAIVE_DEPTH_LIMIT = 4
# blocks up to this size are solved by enumerating permutations, larger ones
# by linear_sum_assignment
_ENUM_MAX_Q = 4
# permutations whose float sum is within this relative distance of the
# smallest one are re-summed exactly
_NEAR_RTOL = 1e-9


def _cross_distances(fa: np.ndarray, fb: np.ndarray, norm: str) -> np.ndarray:
    if fa.shape[1] != fb.shape[1]:
        raise DatasetError(
            f"feature dimensions differ: {fa.shape[1]} vs {fb.shape[1]}")
    metric = "cityblock" if norm == "l1" else "euclidean"
    return cdist(fa, fb, metric=metric)


def _pair_distance(x: np.ndarray, y: np.ndarray, norm: str) -> float:
    d = x - y
    if norm == "l1":
        return float(np.abs(d).sum())
    return float(np.sqrt((d * d).sum()))


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


@dataclass(frozen=True)
class _Plan:
    """Everything the distance needs from one graph under one config.

    ``nbr[u, :deg[u]]`` are u's neighbours in ascending order; the rest of the
    row holds ``n``, the index of the blank tree in an extended table.
    ``blanks[d - 1][u]`` is the distance of u's depth-d tree to a blank tree.
    """

    deg: np.ndarray
    nbr: np.ndarray
    blanks: tuple[np.ndarray, ...]


def _build_plan(g: Graph, cfg: TmdConfig) -> _Plan:
    n = g.node_count
    eu, ev = g.edge_arrays()
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    start = np.cumsum(deg) - deg
    nbr = np.full((n, int(deg.max(initial=0))), n, dtype=np.intp)
    nbr[src, np.arange(src.size) - start[src]] = dst

    x = feature_norms(g.features, cfg.feature_norm)
    blanks = [x]
    for d in range(2, cfg.depth + 1):
        # padding slots read the trailing 0.0, which leaves each fsum unchanged
        kids = np.append(blanks[-1], 0.0)[nbr]
        blanks.append(x + cfg.level_weight(d - 1) * np.fromiter(
            map(math.fsum, kids.tolist()), dtype=np.float64, count=n))
    return _Plan(deg, nbr, tuple(blanks))


def _plan(g: Graph, cfg: TmdConfig) -> _Plan:
    cached = g._tmd_plan
    if cached is None or cached[0] != cfg:
        cached = g._tmd_plan = (cfg, _build_plan(g, cfg))
    return cached[1]


def _extended(td: np.ndarray, bl_a: np.ndarray, bl_b: np.ndarray) -> np.ndarray:
    """``td`` with a blank row and column appended (blank vs blank costs 0)."""
    na, nb = td.shape
    ext = np.empty((na + 1, nb + 1))
    ext[:na, :nb] = td
    ext[:na, nb] = bl_a
    ext[na, :nb] = bl_b
    ext[na, nb] = 0.0
    if not np.isfinite(ext).all():
        raise NumericalOverflowError(
            f"tree distance table overflowed (n={na} vs n={nb}); "
            "reduce the depth, the level weights or the feature scale")
    return ext


def _solve_enumerated(blocks: np.ndarray) -> np.ndarray:
    """Exact matching values of small (P, q, q) blocks by permutation scan.

    Vectorized sums locate every permutation within a relative hair of the
    minimum; ``fsum`` then re-evaluates those candidates exactly, once per
    distinct multiset of entries (permutations of identical blank rows repeat
    the same multiset).
    """
    count, q = blocks.shape[0], blocks.shape[1]
    entries = blocks.reshape(count, q * q)[:, np.arange(q) * q + _permutations(q)]
    totals = entries.sum(axis=2)
    # entries are non-negative, so the summation error is relative to the total
    near = totals <= totals.min(axis=1, keepdims=True) * (1.0 + _NEAR_RTOL)
    block, perm = np.nonzero(near)
    cand = entries[block, perm]
    if block.size > count:
        cand = np.sort(cand, axis=1)
        order = np.lexsort((*cand.T[::-1], block))
        block, cand = block[order], cand[order]
        keep = np.ones(block.size, dtype=bool)
        keep[1:] = (block[1:] != block[:-1]) | (cand[1:] != cand[:-1]).any(axis=1)
        block, cand = block[keep], cand[keep]
    exact = np.fromiter(map(math.fsum, cand.tolist()), dtype=np.float64,
                        count=block.size)
    firsts = np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
    return np.minimum.reduceat(exact, firsts)


def _solve_lsap(blocks: np.ndarray) -> np.ndarray:
    """Exact matching values of wide (P, q, q) blocks: LSAP, then ``fsum``."""
    count, q = blocks.shape[0], blocks.shape[1]
    cols = np.array([linear_sum_assignment(c)[1] for c in blocks])
    chosen = blocks[np.arange(count)[:, None], np.arange(q), cols]
    return np.fromiter(map(math.fsum, chosen.tolist()), dtype=np.float64,
                       count=count)


def _tmd_tables(ga: Graph, gb: Graph, cfg: TmdConfig) -> np.ndarray:
    """Extended depth-L table: ``ext[u, v]`` is the distance between the
    computation trees of u and v, row ``na`` / column ``nb`` the blank tree.

    Each level solves one padded matching per node pair (u, v) over the
    children of u and v.  Pairs are grouped by block size q = max(deg u,
    deg v) and every block of one size is gathered from the previous level's
    extended table in one indexing step.
    """
    pa, pb = _plan(ga, cfg), _plan(gb, cfg)
    na, nb = ga.node_count, gb.node_count
    base = _cross_distances(ga.features, gb.features, cfg.feature_norm)
    ext = _extended(base, pa.blanks[0], pb.blanks[0])
    if cfg.depth == 1:
        return ext

    sizes = np.maximum(pa.deg[:, None], pb.deg[None, :]).ravel()
    width = int(sizes.max())
    nbr_a = np.full((na, width), na, dtype=np.intp)
    nbr_a[:, :pa.nbr.shape[1]] = pa.nbr
    nbr_b = np.full((nb, width), nb, dtype=np.intp)
    nbr_b[:, :pb.nbr.shape[1]] = pb.nbr
    order = np.argsort(sizes, kind="stable")
    bounds = np.searchsorted(sizes[order], np.arange(1, width + 2))
    groups = []
    for q in range(1, width + 1):
        pairs = order[bounds[q - 1]:bounds[q]]
        if pairs.size:
            u, v = np.divmod(pairs, nb)
            groups.append((q, pairs, nbr_a[u, :q, None], nbr_b[v, None, :q]))

    for d in range(2, cfg.depth + 1):
        values = np.zeros(na * nb)
        for q, pairs, rows, cols in groups:
            blocks = ext[rows, cols]
            values[pairs] = (_solve_enumerated(blocks) if q <= _ENUM_MAX_Q
                             else _solve_lsap(blocks))
        td = base + cfg.level_weight(d - 1) * values.reshape(na, nb)
        ext = _extended(td, pa.blanks[d - 1], pb.blanks[d - 1])
    return ext


def tmd_cost_matrix(ga: Graph, gb: Graph, cfg: TmdConfig) -> np.ndarray:
    """Padded top-level cost matrix over depth-L computation trees.

    Rows 0..na-1 are ga's trees, columns 0..nb-1 are gb's; the remaining
    rows/columns (if any) are blank padding.  The tree mover's distance is
    the min-cost matching value of this matrix.
    """
    na, nb = ga.node_count, gb.node_count
    ext = _tmd_tables(ga, gb, cfg)
    idx = np.arange(max(na, nb))
    return ext[np.minimum(idx, na)[:, None], np.minimum(idx, nb)[None, :]]


def tmd(ga: Graph, gb: Graph, cfg: TmdConfig) -> float:
    """Tree mover's distance at depth ``cfg.depth``.

    Symmetric and non-negative; zero for identical graphs.  Values are exact
    matching sums (no normalization by multiset size).
    """
    if ga.node_count == 0 and gb.node_count == 0:
        return 0.0
    if ga.node_count == 0:
        return tree_norm(gb, cfg)
    if gb.node_count == 0:
        return tree_norm(ga, cfg)
    try:
        return matching_value(tmd_cost_matrix(ga, gb, cfg))
    except OverflowError as exc:  # an exact fsum of finite entries overflowed
        raise NumericalOverflowError(
            f"tree mover's distance overflowed at depth {cfg.depth}; "
            "reduce the depth, the level weights or the feature scale") from exc


# ---------------------------------------------------------------------------
# naive oracle route: literal trees, literal recursion
# ---------------------------------------------------------------------------

def _subtree_blank_cost(t: RootedTree, i: int, cfg: TmdConfig,
                        memo: dict[int, float]) -> float:
    """TD between the subtree rooted at ``i`` and a blank tree."""
    if i in memo:
        return memo[i]
    depth = int(t.subtree_depths()[i])
    val = _pair_distance(t.features[i], np.zeros_like(t.features[i]), cfg.feature_norm)
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
    base = _pair_distance(ta.features[i], tb.features[j], cfg.feature_norm)
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


# ---------------------------------------------------------------------------
# subgraph shortcut and pairwise matrices
# ---------------------------------------------------------------------------

def tmd_subgraph(g: Graph, nodes, cfg: TmdConfig) -> float:
    """Distance from ``g`` to its induced subgraph on ``nodes``.

    Computed as the tree-norm difference (the identity transport plan is
    optimal for subgraph deletions), which costs two fast norm passes instead
    of a full matching.
    """
    from .graphs import induced_subgraph

    return tree_norm(g, cfg) - tree_norm(induced_subgraph(g, nodes), cfg)


@dataclass
class DistanceMatrix:
    """Condensed pairwise distance matrix over a dataset.

    ``values`` holds the strict upper triangle row-major: entry (i, j) with
    i < j lives at index ``i*n - i*(i+1)//2 + (j - i - 1)``.
    """

    n: int
    metric: str
    depth: int
    weight_preset: str
    values: np.ndarray

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (expected,):
            raise ValueError(
                f"expected {expected} condensed entries for n={self.n}, "
                f"got shape {self.values.shape}")

    def index(self, i: int, j: int) -> int:
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"bad pair ({i},{j}) for n={self.n}")
        if i > j:
            i, j = j, i
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)

    def value(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.values[self.index(i, j)])

    def full(self) -> np.ndarray:
        if self.n == 0:
            return np.zeros((0, 0))
        return squareform(self.values)


def pairwise_matrix(ds: Dataset, cfg: TmdConfig) -> DistanceMatrix:
    """All-pairs tree mover's distances over a dataset.

    Pairs are evaluated independently, so the result does not depend on
    evaluation order.
    """
    n = len(ds)
    vals = np.zeros(n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            vals[k] = tmd(ds[i], ds[j], cfg)
            k += 1
    return DistanceMatrix(n, "tmd", cfg.depth, cfg.weights.spec_string(), vals)
