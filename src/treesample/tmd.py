"""Tree mover's distance between attributed graphs.

The distance matches the multisets of depth-L computation trees of two
graphs, using a recursive tree distance as the ground cost.  Mismatched
multiset sizes are padded with blank trees (a single node with an all-zero
feature vector), so graphs of different sizes compare directly.

One kernel computes every distance: a bottom-up dynamic program over node
pairs, one depth level at a time, that materializes no tree and ends in the
top-level matching.  It runs on a batch of graph pairs at once
(``pairwise_matrix`` feeds it every pair of a dataset in consecutive chunks,
``tmd`` a batch of one), and every matching of one shape across the batch
is solved together.  The smaller side's padding is one blank row however
many blank trees it stands for, so a hub against a leaf costs one column
choice, not a q x q solve.  The literal recursion on unrolled trees that it
is checked against lives in :mod:`treesample.oracles`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, squareform

from .config import TmdConfig
from .errors import DatasetError, NumericalOverflowError, _is_int, _require_int, exact_sums
from .graphs import Dataset, Graph
from .treenorm import feature_norms, tree_norm

# blocks up to this size are solved by enumerating injective maps, larger
# ones by linear_sum_assignment
_ENUM_MAX_Q = 4
# maps whose float sum is within this relative distance of the smallest one
# are re-summed exactly
_NEAR_RTOL = 1e-9
# the r real rows of a wider block have q!/(q - r)! injective maps; shapes
# where r times that is at most this are first tried by enumeration: r = 2 up
# to q = 14 and r = 3 up to q = 6
_FEW_MAP_TERMS = 400
# the kernel runs consecutive pairs whose extended tables hold about this
# many entries together, and gathers at most _SOLVE_ENTRIES block entries (and
# map terms) per solver call; a chunk's working set is at most ~70 bytes per
# table entry
_CHUNK_ENTRIES = 1 << 15
_SOLVE_ENTRIES = 1 << 13
# a chunk with fewer table entries indexes them, and its node table, with
# int32; a larger one with int64
_INT32_ENTRIES = 1 << 31


def _cross_distances(fa: np.ndarray, fb: np.ndarray, norm: str) -> np.ndarray:
    if fa.shape[1] != fb.shape[1]:
        raise DatasetError(
            f"feature dimensions differ: {fa.shape[1]} vs {fb.shape[1]}")
    if norm == "l1":
        return cdist(fa, fb, metric="cityblock")
    out = cdist(fa, fb, metric="euclidean")
    # as in feature_norms: squares past ~1e154 overflow where the distance of
    # two finite rows (as all graph features are) may fit; redo those with hypot
    u, v = np.nonzero(np.isinf(out))
    if u.size:
        out[u, v] = np.hypot.reduce(fa[u] - fb[v], axis=1)
    return out


def _injective_maps(q: int, r: int) -> np.ndarray:
    """Entries of a block with q columns, as flat positions, that each
    injective map of the real rows 0..r-1 into the columns matches, ``(m,
    q)`` with ``m = q! / (q - r)!``: its r chosen entries, then the blank row
    r at each column the map leaves over."""
    maps = itertools.permutations(range(q), r)
    return np.array([[i * q + c for i, c in enumerate(m)]
                     + [r * q + c for c in range(q) if c not in m] for m in maps],
                    dtype=np.intp)


_MAPS = {(q, r): _injective_maps(q, r)
         for q in range(1, _ENUM_MAX_Q + 1) for r in range(q + 1)}


# no shape past q = 14 qualifies: r = 2 at q = 15 has 420 terms
_FEW_MAPS = {(q, r): _injective_maps(q, r) for q in range(_ENUM_MAX_Q + 1, 15)
             for r in range(2, q) if r * math.perm(q, r) <= _FEW_MAP_TERMS}


def _solve_injective(blocks: np.ndarray, r: int) -> np.ndarray:
    """Exact matching values of small (P, m, q) blocks, by injective maps.

    Rows 0..r-1 of each block are real; if r < q, row r is the one blank row
    that stands for q - r identical ones.  Every map of the real rows into
    the columns, the blank rows taking the columns left over, is one distinct
    assignment of the padded q x q block, so the q!/(q - r)! maps cover every
    multiset of entries its q! permutations do.
    Vectorized sums locate every map within a relative hair of the minimum
    and ``fsum`` re-sums those exactly; the exact optimum is always among
    them, so the value is the exact optimum rounded once.
    """
    count, q = blocks.shape[0], blocks.shape[2]
    maps = _MAPS[q, r]
    entries = blocks.reshape(count, -1)[:, maps]
    totals = entries.sum(axis=2)
    # entries are non-negative, so the summation error is relative to the total
    near = totals <= totals.min(axis=1, keepdims=True) * (1.0 + _NEAR_RTOL)
    block, which = np.nonzero(near)
    exact = exact_sums(entries[block, which], "a matching total")
    if block.size == count:  # one near map per block, as is common: no reduceat
        return exact
    return np.minimum.reduceat(exact, np.flatnonzero(np.diff(block, prepend=-1)))


def _solve_lsap(blocks: np.ndarray, r: int) -> np.ndarray:
    """Exact matching values of wide (P, m, q) blocks: LSAP, then ``fsum``.

    Rows 0..r-1 of each block are real.  If r = q the block is square; if
    r < q, row r is the one blank row that stands for q - r identical ones.
    Any assignment then costs ``sum(b) + sum(c[i, s(i)] - b[s(i)])`` over
    the real rows i, with b the blank row, so one r x q solve on
    ``c[:r] - b`` picks the real rows' columns and the blank rows take the
    rest; r <= 1 needs no solver call.  The value is the exact sum of the
    picked entries: the real rows' and the blank row's at the columns left
    over.

    A shape with few maps (``_FEW_MAPS``) first sums every map on
    ``c[:r] - b``.  Where exactly one map lies within ``_NEAR_RTOL`` times
    the block's total magnitude of the float minimum, that map is the one
    ``linear_sum_assignment`` returns, and the block needs no solver call:
    the solver's assignment is optimal up to rounding, and rounding moves a
    sum of r terms by a few ulps of that magnitude, far inside the margin,
    so no other map can be optimal to within it.  Every other block, ties
    among them, goes to the solver.
    """
    count, q = blocks.shape[0], blocks.shape[2]
    real = blocks[:, :r]
    costs = real if r == q else real - blocks[:, r:r + 1]
    if (q, r) in _FEW_MAPS:
        maps = _FEW_MAPS[q, r]
        flat, at = costs.reshape(count, -1), np.arange(count)
        totals = flat[:, maps[:, 0]]
        for i in range(1, r):
            totals += flat[:, maps[:, i]]
        best = totals.argmin(axis=1)
        near = totals[at, best] + _NEAR_RTOL * np.abs(flat).sum(axis=1)
        totals[at, best] = np.inf  # the least total of every other map
        tied = np.flatnonzero(totals.min(axis=1) <= near)
        if tied.size:  # the map whose r entries the solver picks
            picks = np.array([linear_sum_assignment(c)[1] for c in costs[tied]])
            picks += q * np.arange(r)
            best[tied] = (maps[:, :r] == picks[:, None]).all(axis=2).argmax(axis=1)
        return exact_sums(blocks.reshape(count, -1)[at[:, None], maps[best]], "a matching total")
    if r > 1:
        cols = np.array([linear_sum_assignment(c)[1] for c in costs])
    else:  # no row, or one row's first cheapest column, as the solver picks it
        cols = costs.argmin(axis=2)
    at = np.arange(count)[:, None]
    picked = real[at, np.arange(r), cols]
    if r < q:
        free = np.ones((count, q), dtype=bool)
        free[at, cols] = False
        picked = np.concatenate((picked, blocks[:, r][free].reshape(count, q - r)), axis=1)
    return exact_sums(picked, "a matching total")


def _cells(owner: np.ndarray, ua: np.ndarray, vb: np.ndarray, deg: np.ndarray,
           blank: int) -> tuple[tuple[np.ndarray, ...], list]:
    """The map's entries (``owner``, ``ua``, ``vb``) with two real rows (not
    ``blank``) and a block that is not empty (q >= 1), sorted by block shape:
    each cell's pair, rows and position in the flat buffer, plus ``(lo, hi,
    q, r)`` per run of one shape (q the larger degree, r the smaller)."""
    at = np.flatnonzero((ua != blank) & (vb != blank)).astype(ua.dtype)
    u, v = ua[at], vb[at]
    q, r = np.maximum(deg[u], deg[v]), np.minimum(deg[u], deg[v])
    # the key passes int32 at a degree of 46,341
    order = np.argsort(q.astype(np.int64) * (q + 1) + r,
                       kind="stable")[np.count_nonzero(q == 0):]
    at, q, r = at[order], q[order], r[order]
    bounds = (np.flatnonzero((np.diff(q) != 0) | (np.diff(r) != 0)) + 1).tolist()
    groups = [(lo, hi, int(q[lo]), int(r[lo]))
              for lo, hi in zip([0, *bounds], [*bounds, at.size]) if lo < hi]
    del q, r
    return (owner[at], u[order], v[order], at), groups


@np.errstate(over="ignore")  # a non-finite table is reported by with_blanks
def _tables(graphs: list[Graph], pairs: list[tuple[int, int]],
            cfg: TmdConfig) -> np.ndarray:
    """Tree mover's distances of a batch of pairs (i, j) of non-empty graphs.

    Pair k's extended table is ``ext[off[k]:off[k + 1]]`` as an (na + 1) x
    (nb + 1) array: entry (u, v) is the distance between the computation
    trees of u in graph i and v in graph j, row na / column nb the blank
    tree.  All tables live in one flat buffer.  Each level solves one padded
    matching per node pair (u, v) over their children; the cells of every
    pair are grouped once by block shape (q, r), the larger and the smaller
    degree, and each group is gathered from the buffer and solved in
    sub-batches of at most ``_SOLVE_ENTRIES`` entries.  A block holds the
    smaller side's r children as rows and, if r < q, one blank row for the
    q - r blank trees that pad it; q <= ``_ENUM_MAX_Q`` blocks are solved by
    injective maps, wider ones by an r x q ``linear_sum_assignment`` unless
    their maps are few and one of them is the clear minimum.  The top level
    is one square q x q block per pair, q = max(na, nb), solved in the same
    way with the pairs grouped by q.  The entry map and the cells are int32
    below ``_INT32_ENTRIES`` entries, and the map is freed before the first
    level.
    """
    na = np.array([graphs[i].node_count for i, _ in pairs], dtype=np.intp)
    nb = np.array([graphs[j].node_count for _, j in pairs], dtype=np.intp)
    off = np.concatenate([[0], np.cumsum((na + 1) * (nb + 1))])
    # every per-pair, per-node and per-entry index is of one integer type,
    # int32 while the chunk's entries fit it, so the map below stays small
    itype = np.int32 if off[-1] < _INT32_ENTRIES else np.int64
    na, nb, off = na.astype(itype), nb.astype(itype), off.astype(itype)
    stride = nb + 1

    # the batch's node table, one row block per distinct graph: degrees,
    # neighbours from the graph's CSR padded with its blank index n to the
    # widest degree of the batch, and blanks[d - 1][u], the distance of u's
    # depth-d tree to a blank tree, with a trailing 0.0 that padding reads
    used, inv = np.unique(pairs, return_inverse=True)
    sizes = np.array([graphs[i].node_count for i in used], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    deg = np.concatenate([graphs[i].degrees() for i in used]).astype(itype)
    real = np.arange(deg.max(initial=0)) < deg[:, None]
    nbr = np.repeat(sizes, sizes)[:, None].repeat(real.shape[1], axis=1)
    # a boolean mask fills row by row, the order of the CSR indices
    nbr[real] = np.concatenate([graphs[i].csr()[1] for i in used])
    kids = np.where(real, nbr + np.repeat(starts[:-1], sizes)[:, None], starts[-1])
    x = np.concatenate([feature_norms(graphs[i].features, cfg.feature_norm) for i in used])
    blanks = [np.append(x, 0.0)]
    for d in range(2, cfg.depth + 1):
        kid_sums = exact_sums(blanks[-1][kids], "a distance to the blank tree")
        blanks.append(np.append(x + cfg.level_weight(d - 1) * kid_sums, 0.0))
    a0, b0 = starts[inv.reshape(-1, 2).T].astype(itype)

    # the map of every table entry: its pair, and the node-table rows of its
    # u and v, where row ``blank`` (past every real row) is the blank tree
    blank = int(starts[-1])
    owner = np.repeat(np.arange(len(pairs), dtype=itype), np.diff(off))
    ua, vb = np.divmod(np.arange(off[-1], dtype=itype) - off[owner], stride[owner])
    ua = np.where(ua < na[owner], ua + a0[owner], blank)
    vb = np.where(vb < nb[owner], vb + b0[owner], blank)
    # a blank row or column reads the other side's distance to the blank tree
    blank_pos = np.flatnonzero((ua == blank) | (vb == blank)).astype(itype)
    blank_src = np.minimum(ua, vb)[blank_pos]
    (pair, ra, rb, cell_at), groups = _cells(owner, ua, vb, deg, blank)
    del owner, ua, vb
    # a block's rows are the smaller side's children, then its blank; its
    # columns the other side's children, then blanks.  A table row steps by
    # the pair's stride, a column by 1
    flip = deg[ra] > deg[rb]
    small, large = np.where(flip, rb, ra), np.where(flip, ra, rb)
    row_step, col_step = np.where(flip, 1, stride[pair]), np.where(flip, stride[pair], 1)
    pair_off = off[pair]
    # the levels read only the oriented cells, the blanks and the tables
    del pair, ra, rb, flip

    ext = np.empty(off[-1])
    for k, (i, j) in enumerate(pairs):
        table = ext[off[k]:off[k + 1]].reshape(na[k] + 1, nb[k] + 1)
        table[:-1, :-1] = _cross_distances(graphs[i].features, graphs[j].features,
                                           cfg.feature_norm)

    def with_blanks(table: np.ndarray, level: int) -> np.ndarray:
        table[blank_pos] = blanks[level][blank_src]
        bad = np.flatnonzero(~np.isfinite(table))
        if bad.size:
            k = np.searchsorted(off, bad[0], "right") - 1
            raise NumericalOverflowError(
                f"tree distance table overflowed (n={na[k]} vs n={nb[k]}); "
                "reduce the depth, the level weights or the feature scale")
        return table

    base = with_blanks(ext, 0)
    for d in range(2, cfg.depth + 1):
        values = np.zeros(off[-1])
        for lo, hi, q, r in groups:
            enum = q <= _ENUM_MAX_Q
            m = r + (r < q)  # the real rows, then one blank row
            # a block's entries, plus what its maps gather: each map's q
            # entries, or a wide block's map totals and one term of each
            terms = (q * math.perm(q, r) if enum else
                     2 * math.perm(q, r) if (q, r) in _FEW_MAPS else 0)
            step = max(1, _SOLVE_ENTRIES // (q * m + terms))
            for s in range(lo, hi, step):
                at = slice(s, min(s + step, hi))
                rows = nbr[small[at], :m] * row_step[at, None] + pair_off[at, None]
                cols = nbr[large[at], :q] * col_step[at, None]
                blocks = ext[rows[:, :, None] + cols[:, None, :]]
                values[cell_at[at]] = (_solve_injective(blocks, r) if enum else
                                       _solve_lsap(blocks, r))
        values *= cfg.level_weight(d - 1)
        values += base
        ext = with_blanks(values, d - 1)
    # the blanks and the cells are not read again: free them for the top level
    del blank_pos, blank_src, base, cell_at, small, large, row_step, col_step, pair_off

    # the top level: pair k's q x q matrix, q = max(na, nb), reads table
    # entry (min(i, na), min(j, nb)) at (i, j), so the smaller side's padding
    # reads the blank row or column and blank against blank the corner's 0.0
    top_q = np.maximum(na, nb)
    dist = np.empty(len(pairs))
    for q in np.unique(top_q).tolist():
        group, idx = np.flatnonzero(top_q == q), np.arange(q)
        step = max(1, _SOLVE_ENTRIES // (q * q))
        for s in range(0, group.size, step):
            at = group[s:s + step]
            rows = np.minimum(idx, na[at, None]) * stride[at, None] + off[at, None]
            cols = np.minimum(idx, nb[at, None])
            dist[at] = _solve_lsap(ext[rows[:, :, None] + cols[:, None, :]], q)
    return dist


def _distances(graphs: list[Graph], index_pairs: Iterable[tuple[int, int]],
               cfg: TmdConfig) -> Iterator[float]:
    """Tree mover's distance of each pair (i, j) of ``graphs``; every distance
    is computed here.

    Each pair is put in the order of its graphs' content keys (``Graph._key``,
    which ``==`` and ``hash`` read) first, because on tied costs
    ``linear_sum_assignment`` may pick another near-tie assignment on the
    transposed matrices, whose exact sum differs in the last bit.  The pairs
    run in consecutive chunks whose extended tables hold about
    ``_CHUNK_ENTRIES`` entries, each chunk solved by one :func:`_tables` call.
    A pair with an empty graph is the other graph's tree norm.
    """
    keys = [g._key for g in graphs]
    sizes = [g.node_count for g in graphs]

    def chunks() -> Iterator[list[tuple[int, int]]]:
        chunk, size = [], 0
        for i, j in index_pairs:
            chunk.append((j, i) if keys[j] < keys[i] else (i, j))
            size += (sizes[i] + 1) * (sizes[j] + 1)
            if size >= _CHUNK_ENTRIES:
                yield chunk
                chunk, size = [], 0
        yield chunk

    for chunk in chunks():
        full = [(i, j) for i, j in chunk if sizes[i] and sizes[j]]
        dists = iter(_tables(graphs, full, cfg).tolist() if full else [])
        for i, j in chunk:
            yield (next(dists) if sizes[i] and sizes[j] else
                   tree_norm(graphs[j] if sizes[i] == 0 else graphs[i], cfg))


def tmd(ga: Graph, gb: Graph, cfg: TmdConfig) -> float:
    """Tree mover's distance at depth ``cfg.depth``.

    Non-negative, zero for identical graphs, and symmetric bit for bit (see
    :func:`_distances`).  Values are exact matching sums (no normalization
    by multiset size).  Callers with many pairs should use
    :func:`pairwise_matrix`, which solves them in batches.
    """
    return next(_distances([ga, gb], [(0, 1)], cfg))


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Condensed pairwise distance matrix over a dataset, checked once and then
    immutable: an ``n`` that is not an integer >= 0, values of the wrong
    length or a NaN or infinite value raise :class:`DatasetError`, so every
    reader sees a finite matrix.

    ``values`` holds the strict upper triangle row-major, as a read-only
    float64 copy: entry (i, j) with i < j lives at index
    ``i*n - i*(i+1)//2 + (j - i - 1)``.  Matrices compare and hash by
    identity, as a field-wise ``==`` of arrays has no single truth value.
    """

    n: int
    metric: str
    depth: int
    weight_preset: str
    values: np.ndarray

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 0):
            raise DatasetError(f"n must be an integer >= 0, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        expected = self.n * (self.n - 1) // 2
        # always a copy, so freezing it leaves the caller's array writable
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (expected,):
            raise DatasetError(
                f"expected {expected} condensed entries for n={self.n}, "
                f"got shape {values.shape}")
        if not np.isfinite(values).all():  # argmin would pick a NaN a strict-< scan skips
            raise DatasetError("distance matrix has non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def value(self, i: int, j: int) -> float:
        i, j = (_require_int(x, "pair index", 0, self.n - 1) for x in (i, j))
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[i * self.n - i * (i + 1) // 2 + (j - i - 1)])

    def full(self) -> np.ndarray:
        if self.n == 0:
            return np.zeros((0, 0))
        return squareform(self.values)


def pairwise_matrix(ds: Dataset, cfg: TmdConfig) -> DistanceMatrix:
    """All-pairs tree mover's distances over a dataset, each value ``tmd``
    of its pair bit for bit."""
    n = len(ds)
    vals = np.fromiter(_distances(list(ds), itertools.combinations(range(n), 2), cfg),
                       dtype=np.float64, count=n * (n - 1) // 2)
    return DistanceMatrix(n, "tmd", cfg.depth, cfg.weights.spec_string(), vals)
