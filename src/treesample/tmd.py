"""Tree mover's distance between attributed graphs.

The distance matches the multisets of depth-L computation trees of two
graphs, using a recursive tree distance as the ground cost.  Mismatched
multiset sizes are padded with blank trees (a single node with an all-zero
feature vector), so graphs of different sizes compare directly.

One kernel computes every distance: a bottom-up dynamic program over node
pairs, one depth level at a time, that materializes no tree.  It runs on a
batch of graph pairs at once (``pairwise_matrix`` feeds it every pair of a
dataset in consecutive chunks, ``tmd`` a batch of one); each level solves
one padded matching per node pair, with the blocks of one shape across the
whole batch solved together.  The literal recursion on unrolled trees that
it is checked against lives in :mod:`treesample.oracles`.
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
from .errors import DatasetError, NumericalOverflowError, exact_sums
from .graphs import Dataset, Graph, _is_int
from .treenorm import feature_norms, subset_tree_norm_sweep, tree_norm

# blocks up to this size are solved by enumerating injective maps, larger
# ones by linear_sum_assignment
_ENUM_MAX_Q = 4
# maps whose float sum is within this relative distance of the smallest one
# are re-summed exactly
_NEAR_RTOL = 1e-9
# the kernel runs consecutive pairs whose extended tables hold about this
# many entries together, and gathers at most _SOLVE_ENTRIES block entries per
# solver call; a chunk's working set is ~125 bytes per table entry
_CHUNK_ENTRIES = 1 << 13
_SOLVE_ENTRIES = 1 << 13


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
    """Entries of a q x q block, as flat positions, that each injective map
    of the real rows 0..r-1 into the q columns matches, ``(m, q)`` with
    ``m = q! / (q - r)!``: its r chosen entries, then the blank row r (rows
    r..q-1 are identical blank rows) at each column the map leaves over."""
    maps = itertools.permutations(range(q), r)
    return np.array([[i * q + c for i, c in enumerate(m)]
                     + [r * q + c for c in range(q) if c not in m] for m in maps],
                    dtype=np.intp)


_MAPS = {(q, r): _injective_maps(q, r)
         for q in range(1, _ENUM_MAX_Q + 1) for r in range(q + 1)}


def _solve_injective(blocks: np.ndarray, r: int) -> np.ndarray:
    """Exact matching values of small (P, q, q) blocks, by injective maps.

    Rows 0..r-1 of each block are real; rows r..q-1 are identical blank
    rows.  Every map of the real rows into the columns, the blank rows taking
    the columns left over, is one distinct assignment of the block, so the
    q!/(q - r)! maps cover every multiset of entries its q! permutations do.
    Vectorized sums locate every map within a relative hair of the minimum
    and ``fsum`` re-sums those exactly; the exact optimum is always among
    them, so the value is the exact optimum rounded once.
    """
    count, q = blocks.shape[0], blocks.shape[1]
    maps = _MAPS[q, r]
    entries = blocks.reshape(count, q * q)[:, maps]
    if maps.shape[0] == 1:  # r = 0, or q = r = 1
        return exact_sums(entries[:, 0], "a matching total")
    totals = entries.sum(axis=2)
    # entries are non-negative, so the summation error is relative to the total
    near = totals <= totals.min(axis=1, keepdims=True) * (1.0 + _NEAR_RTOL)
    block, which = np.nonzero(near)
    exact = exact_sums(entries[block, which], "a matching total")
    if block.size == count:
        return exact
    return np.minimum.reduceat(exact, np.flatnonzero(np.diff(block, prepend=-1)))


def _solve_lsap(blocks: np.ndarray) -> np.ndarray:
    """Exact matching values of wide (P, q, q) blocks: LSAP, then ``fsum``."""
    count, q = blocks.shape[0], blocks.shape[1]
    cols = np.array([linear_sum_assignment(c)[1] for c in blocks])
    return exact_sums(blocks[np.arange(count)[:, None], np.arange(q), cols],
                      "a matching total")


def _cells(owner: np.ndarray, ua: np.ndarray, vb: np.ndarray, deg: np.ndarray,
           blank: int) -> tuple[tuple[np.ndarray, ...], list]:
    """The map's entries (``owner``, ``ua``, ``vb``) with two real rows (not
    ``blank``) and a block that is not empty (q >= 1), sorted by block shape:
    each cell's pair, rows and position in the flat buffer, plus ``(lo, hi,
    q, r)`` per run of one shape.  Blocks up to ``_ENUM_MAX_Q`` have one shape
    per (q, r), wider ones one per q."""
    at = np.flatnonzero((ua != blank) & (vb != blank))
    u, v = ua[at], vb[at]
    q, r = np.maximum(deg[u], deg[v]), np.minimum(deg[u], deg[v])
    r[q > _ENUM_MAX_Q] = 0
    key = q * (q + 1) + r
    order = np.argsort(key, kind="stable")[np.count_nonzero(q == 0):]
    bounds = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    groups = [(lo, hi, int(q[order[lo]]), int(r[order[lo]]))
              for lo, hi in zip([0, *bounds], [*bounds, order.size]) if lo < hi]
    return (owner[at[order]], u[order], v[order], at[order]), groups


@np.errstate(over="ignore")  # a non-finite table is reported by with_blanks
def _tables(graphs: list[Graph], pairs: list[tuple[int, int]],
            cfg: TmdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Extended depth-L tables of a batch of pairs (i, j) of non-empty graphs.

    Pair k's table is ``ext[off[k]:off[k + 1]]`` as an (na + 1) x (nb + 1)
    array: entry (u, v) is the distance between the computation trees of u
    in graph i and v in graph j, row na / column nb the blank tree.  All
    tables live in one flat buffer.  Each level solves one padded matching
    per node pair (u, v) over their children; the cells of every pair are
    grouped once by block shape, and each group is gathered from the buffer
    and solved in sub-batches of at most ``_SOLVE_ENTRIES`` entries: blocks
    with q = max(deg u, deg v) <= ``_ENUM_MAX_Q`` by injective maps, wider
    ones padded to q x q for ``linear_sum_assignment``.
    """
    na = np.array([graphs[i].node_count for i, _ in pairs], dtype=np.intp)
    nb = np.array([graphs[j].node_count for _, j in pairs], dtype=np.intp)
    stride = nb + 1
    off = np.concatenate([[0], np.cumsum((na + 1) * stride)])

    # the batch's node table, one row block per distinct graph: degrees,
    # neighbours from the graph's CSR padded with its blank index n to the
    # widest degree of the batch, and blanks[d - 1][u], the distance of u's
    # depth-d tree to a blank tree, with a trailing 0.0 that padding reads
    used, inv = np.unique(pairs, return_inverse=True)
    sizes = np.array([graphs[i].node_count for i in used], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    deg = np.concatenate([graphs[i].degrees() for i in used])
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
    a0, b0 = starts[inv.reshape(-1, 2).T]

    # the map of every table entry: its pair, and the node-table rows of its
    # u and v, where row ``blank`` (past every real row) is the blank tree
    blank = starts[-1]
    owner = np.repeat(np.arange(len(pairs)), np.diff(off))
    ua, vb = np.divmod(np.arange(off[-1]) - off[owner], stride[owner])
    ua = np.where(ua < na[owner], ua + a0[owner], blank)
    vb = np.where(vb < nb[owner], vb + b0[owner], blank)
    # a blank row or column reads the other side's distance to the blank tree
    blank_pos = np.flatnonzero((ua == blank) | (vb == blank))
    blank_src = np.minimum(ua, vb)[blank_pos]
    ext = np.empty(off[-1])
    for k, (i, j) in enumerate(pairs):
        table = ext[off[k]:off[k + 1]].reshape(na[k] + 1, nb[k] + 1)
        table[:-1, :-1] = _cross_distances(graphs[i].features, graphs[j].features,
                                           cfg.feature_norm)

    def with_blanks(table: np.ndarray, level: int) -> np.ndarray:
        table[blank_pos] = blanks[level][blank_src]
        bad = np.flatnonzero(~np.isfinite(table))
        if bad.size:
            k = owner[bad[0]]
            raise NumericalOverflowError(
                f"tree distance table overflowed (n={na[k]} vs n={nb[k]}); "
                "reduce the depth, the level weights or the feature scale")
        return table

    base = with_blanks(ext, 0)
    (pair, ra, rb, cell_at), groups = _cells(owner, ua, vb, deg, blank)
    for d in range(2, cfg.depth + 1):
        values = np.zeros(off[-1])
        for lo, hi, q, r in groups:
            enum = q <= _ENUM_MAX_Q
            step = max(1, _SOLVE_ENTRIES // (q * (q + math.perm(q, r)) if enum else q * q))
            for s in range(lo, hi, step):
                e = min(s + step, hi)
                k, ia, ib = pair[s:e], ra[s:e], rb[s:e]
                # u's children then blank rows (row na), v's children then
                # blank columns (column nb)
                rows = off[k, None] + nbr[ia, :q] * stride[k, None]
                blocks = ext[rows[:, :, None] + nbr[ib, None, :q]]
                if not enum:
                    values[cell_at[s:e]] = _solve_lsap(blocks)
                    continue
                # the smaller side's children as the real rows, blanks last
                flip = (deg[ia] > deg[ib])[:, None, None]
                blocks = np.where(flip, blocks.transpose(0, 2, 1), blocks)
                values[cell_at[s:e]] = _solve_injective(blocks, r)
        values *= cfg.level_weight(d - 1)
        values += base
        ext = with_blanks(values, d - 1)
    return ext, off


def _top_level(table: np.ndarray) -> np.ndarray:
    """Square top-level cost matrix of an extended (na + 1) x (nb + 1) table:
    the smaller side is padded with blank trees, blank vs blank costs 0."""
    na, nb = table.shape[0] - 1, table.shape[1] - 1
    idx = np.arange(max(na, nb))
    return table[np.minimum(idx, na)[:, None], np.minimum(idx, nb)[None, :]]


def _order_key(g: Graph) -> tuple:
    """Total order on graphs that :func:`_distances` puts each pair in."""
    return (g.node_count, g.edge_count, g._edges.tobytes(), g.features.tobytes())


def _distances(graphs: list[Graph], index_pairs: Iterable[tuple[int, int]],
               cfg: TmdConfig) -> Iterator[float]:
    """Tree mover's distance of each pair (i, j) of ``graphs``; every distance
    is computed here.

    Each pair is put in :func:`_order_key` order first, because on tied costs
    ``linear_sum_assignment`` may pick another near-tie assignment on the
    transposed matrices, whose exact sum differs in the last bit.  The pairs
    run in consecutive chunks whose extended tables hold about
    ``_CHUNK_ENTRIES`` entries, each chunk building the node table of its
    own graphs.  A pair with an empty graph is the other graph's tree norm; the
    top-level matching is one more ``_solve_lsap`` block per pair, whatever
    its size.
    """
    keys = [_order_key(g) for g in graphs]
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
        if full:
            ext, off = _tables(graphs, full, cfg)
        k = 0
        for i, j in chunk:
            if not (sizes[i] and sizes[j]):
                yield tree_norm(graphs[j] if sizes[i] == 0 else graphs[i], cfg)
                continue
            table = ext[off[k]:off[k + 1]].reshape(sizes[i] + 1, sizes[j] + 1)
            yield float(_solve_lsap(_top_level(table)[None])[0])
            k += 1


def tmd(ga: Graph, gb: Graph, cfg: TmdConfig) -> float:
    """Tree mover's distance at depth ``cfg.depth``.

    Non-negative, zero for identical graphs, and symmetric bit for bit (see
    :func:`_distances`).  Values are exact matching sums (no normalization
    by multiset size).  Callers with many pairs should use
    :func:`pairwise_matrix`, which solves them in batches.
    """
    return next(_distances([ga, gb], [(0, 1)], cfg))


# ---------------------------------------------------------------------------
# subgraph shortcut and pairwise matrices
# ---------------------------------------------------------------------------

def tmd_subgraph(g: Graph, nodes, cfg: TmdConfig) -> float:
    """Distance from ``g`` to its induced subgraph on ``nodes``.

    Computed as the tree-norm difference (the identity transport plan is
    optimal for subgraph deletions), which costs two fast norm passes instead
    of a full matching; the subgraph's norm is scored on ``g``'s own edges.
    """
    return tree_norm(g, cfg) - float(subset_tree_norm_sweep(g, [nodes], [cfg])[0, 0])


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
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"bad pair ({i},{j}) for n={self.n}")
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
