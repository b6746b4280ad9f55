"""Tree mover's distance between attributed graphs.

The distance matches the multisets of depth-L computation trees of two
graphs, using a recursive tree distance as the ground cost.  Mismatched
multiset sizes are padded with blank trees (a single node with an all-zero
feature vector), so graphs of different sizes compare directly.

``tmd`` runs a bottom-up dynamic program over node pairs, one depth level
at a time, and materializes no tree: each level solves one padded matching
per node pair, with the blocks of one size batched together.  The literal
recursion on unrolled trees that it is checked against lives in
:mod:`treesample.oracles`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, squareform

from .config import TmdConfig
from .errors import DatasetError, NumericalOverflowError
from .graphs import Dataset, Graph
from .matching import _permutations, matching_value
from .treenorm import feature_norms, subset_tree_norms, tree_norm

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
    if norm == "l1":
        return cdist(fa, fb, metric="cityblock")
    out = cdist(fa, fb, metric="euclidean")
    # as in feature_norms: squares past ~1e154 overflow where the distance
    # may fit, so recompute only those entries, with hypot, from finite rows
    u, v = np.nonzero(np.isinf(out))
    if u.size:
        ok = np.isfinite(fa[u]).all(axis=1) & np.isfinite(fb[v]).all(axis=1)
        u, v = u[ok], v[ok]
        out[u, v] = np.hypot.reduce(fa[u] - fb[v], axis=1)
    return out


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


# overflow shows up as a non-finite table, which _extended reports
@np.errstate(over="ignore")
def _build_plan(g: Graph, cfg: TmdConfig) -> _Plan:
    n = g.node_count
    deg = g.degrees()
    nbr = np.full((n, int(deg.max(initial=0))), n, dtype=np.intp)
    # a boolean mask fills row by row, the order of the CSR indices
    nbr[np.arange(nbr.shape[1]) < deg[:, None]] = g.csr()[1]

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


@np.errstate(over="ignore")  # as in _build_plan, _extended reports overflow
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
# subgraph shortcut and pairwise matrices
# ---------------------------------------------------------------------------

def tmd_subgraph(g: Graph, nodes, cfg: TmdConfig) -> float:
    """Distance from ``g`` to its induced subgraph on ``nodes``.

    Computed as the tree-norm difference (the identity transport plan is
    optimal for subgraph deletions), which costs two fast norm passes instead
    of a full matching; the subgraph's norm is scored on ``g``'s own edges.
    """
    return tree_norm(g, cfg) - float(subset_tree_norms(g, [nodes], cfg)[0])


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
    vals = np.fromiter((tmd(ds[i], ds[j], cfg)
                        for i, j in itertools.combinations(range(n), 2)),
                       dtype=np.float64, count=n * (n - 1) // 2)
    return DistanceMatrix(n, "tmd", cfg.depth, cfg.weights.spec_string(), vals)
