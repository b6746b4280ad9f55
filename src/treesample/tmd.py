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
from .errors import DatasetError, NumericalOverflowError
from .graphs import Dataset, Graph
from .treenorm import feature_norms, subset_tree_norm_sweep, tree_norm

# blocks up to this size are solved by enumerating injective maps, larger
# ones by linear_sum_assignment
_ENUM_MAX_Q = 4
# maps whose float sum is within this relative distance of the smallest one
# are re-summed exactly
_NEAR_RTOL = 1e-9
# the kernel runs consecutive pairs whose extended tables hold about this
# many entries together, and gathers at most _SOLVE_ENTRIES block entries per
# solver call; a chunk's working set is ~90 bytes per table entry
_CHUNK_ENTRIES = 1 << 13
_SOLVE_ENTRIES = 1 << 13


def _fsums(rows: np.ndarray) -> np.ndarray:
    """Exact ``math.fsum`` of each row; every exact sum of the distance runs
    here, so each overflow of one is a :class:`NumericalOverflowError`."""
    try:
        return np.fromiter(map(math.fsum, rows.tolist()), dtype=np.float64,
                           count=rows.shape[0])
    except OverflowError as exc:
        raise NumericalOverflowError(
            "an exact sum in the tree mover's distance overflowed; "
            "reduce the depth, the level weights or the feature scale") from exc


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


# overflow shows up as a non-finite table, which _tables reports
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
        blanks.append(x + cfg.level_weight(d - 1) * _fsums(kids))
    return _Plan(deg, nbr, tuple(blanks))


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
        return _fsums(entries[:, 0])
    totals = entries.sum(axis=2)
    # entries are non-negative, so the summation error is relative to the total
    near = totals <= totals.min(axis=1, keepdims=True) * (1.0 + _NEAR_RTOL)
    block, which = np.nonzero(near)
    exact = _fsums(entries[block, which])
    if block.size == count:
        return exact
    return np.minimum.reduceat(exact, np.flatnonzero(np.diff(block, prepend=-1)))


def _solve_lsap(blocks: np.ndarray) -> np.ndarray:
    """Exact matching values of wide (P, q, q) blocks: LSAP, then ``fsum``."""
    count, q = blocks.shape[0], blocks.shape[1]
    cols = np.array([linear_sum_assignment(c)[1] for c in blocks])
    return _fsums(blocks[np.arange(count)[:, None], np.arange(q), cols])


def _cells(off: np.ndarray, na: np.ndarray, nb: np.ndarray, a0: np.ndarray,
           b0: np.ndarray, deg: np.ndarray) -> tuple[tuple[np.ndarray, ...], list]:
    """Every cell (pair k, u, v) of a batch whose block is not empty (q >= 1),
    sorted by block shape: each cell's pair, the node-table rows of u and v
    and the cell's position in the flat buffer, plus ``(lo, hi, q, r)`` for
    each run of cells of one shape.  Blocks up to ``_ENUM_MAX_Q`` have one
    shape per (q, r), wider ones one per q."""
    cells = na * nb
    pair = np.repeat(np.arange(na.size), cells)
    u, v = np.divmod(np.arange(pair.size) - np.repeat(np.cumsum(cells) - cells, cells),
                     nb[pair])
    at = off[pair] + u * (nb[pair] + 1) + v
    u += a0[pair]
    v += b0[pair]
    q, r = np.maximum(deg[u], deg[v]), np.minimum(deg[u], deg[v])
    r[q > _ENUM_MAX_Q] = 0
    key = q * (q + 1) + r
    order = np.argsort(key, kind="stable")[np.count_nonzero(q == 0):]
    bounds = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    groups = [(lo, hi, int(q[order[lo]]), int(r[order[lo]]))
              for lo, hi in zip([0, *bounds], [*bounds, order.size]) if lo < hi]
    return (pair[order], u[order], v[order], at[order]), groups


@np.errstate(over="ignore")  # as in _build_plan, a non-finite table is reported
def _tables(graphs: list[Graph], plans: list[_Plan], pairs: list[tuple[int, int]],
            cfg: TmdConfig) -> tuple[np.ndarray, np.ndarray]:
    """Extended depth-L tables of a batch of pairs (i, j) of non-empty
    graphs, ``plans[i]`` being the plan of ``graphs[i]``.

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
    off = np.zeros(len(pairs) + 1, dtype=np.intp)
    np.cumsum((na + 1) * stride, out=off[1:])

    # one row block per distinct graph, its neighbours padded with its blank
    # index to the widest degree of this batch
    used = list(dict.fromkeys(itertools.chain.from_iterable(pairs)))
    starts = np.cumsum([0, *(graphs[i].node_count for i in used)]).tolist()
    slot = dict(zip(used, starts))
    nbr = np.empty((starts[-1], max(plans[i].nbr.shape[1] for i in used)), dtype=np.intp)
    for at, i in zip(starts, used):
        n, width = graphs[i].node_count, plans[i].nbr.shape[1]
        nbr[at:at + n, :width] = plans[i].nbr
        nbr[at:at + n, width:] = n
    deg = np.concatenate([plans[i].deg for i in used])
    a0 = np.array([slot[i] for i, _ in pairs], dtype=np.intp)
    b0 = np.array([slot[j] for _, j in pairs], dtype=np.intp)

    ext = np.empty(off[-1])
    blank_pos = []
    for k, (i, j) in enumerate(pairs):
        table = ext[off[k]:off[k + 1]].reshape(na[k] + 1, nb[k] + 1)
        table[:-1, :-1] = _cross_distances(graphs[i].features, graphs[j].features,
                                           cfg.feature_norm)
        rows = off[k] + np.arange(na[k] + 1) * stride[k]
        blank_pos += [rows[:-1] + nb[k], rows[-1] + np.arange(nb[k] + 1)]
    blank_pos = np.concatenate(blank_pos)
    zero = np.zeros(1)

    def with_blanks(table: np.ndarray, level: int) -> np.ndarray:
        table[blank_pos] = np.concatenate(
            [x for i, j in pairs for x in (plans[i].blanks[level], plans[j].blanks[level],
                                           zero)])
        bad = np.flatnonzero(~np.isfinite(table))
        if bad.size:
            k = int(np.searchsorted(off, bad[0], side="right")) - 1
            raise NumericalOverflowError(
                f"tree distance table overflowed (n={na[k]} vs n={nb[k]}); "
                "reduce the depth, the level weights or the feature scale")
        return table

    base = with_blanks(ext, 0)
    if cfg.depth == 1:
        return base, off

    (pair, ra, rb, cell_at), groups = _cells(off, na, nb, a0, b0, deg)
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
    ``_CHUNK_ENTRIES`` entries, with each graph's plan built once for the
    call.  A pair with an empty graph is the other graph's tree norm; the
    top-level matching is one more ``_solve_lsap`` block per pair, whatever
    its size.
    """
    keys = [_order_key(g) for g in graphs]
    sizes = [g.node_count for g in graphs]
    plans = [_build_plan(g, cfg) for g in graphs]

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
            ext, off = _tables(graphs, plans, full, cfg)
        k = 0
        for i, j in chunk:
            if not (sizes[i] and sizes[j]):
                yield tree_norm(graphs[j] if sizes[i] == 0 else graphs[i], cfg)
                continue
            table = ext[off[k]:off[k + 1]].reshape(sizes[i] + 1, sizes[j] + 1)
            yield float(_solve_lsap(_top_level(table)[None])[0])
            k += 1


def tmd_cost_matrix(ga: Graph, gb: Graph, cfg: TmdConfig) -> np.ndarray:
    """Padded top-level cost matrix over depth-L computation trees.

    Rows 0..na-1 are ga's trees, columns 0..nb-1 are gb's; the remaining
    rows/columns (if any) are blank padding.  The tree mover's distance is
    the min-cost matching value of this matrix, one more padded block.
    """
    plans = [_build_plan(ga, cfg), _build_plan(gb, cfg)]
    ext, _ = _tables([ga, gb], plans, [(0, 1)], cfg)
    return _top_level(ext.reshape(ga.node_count + 1, gb.node_count + 1))


def tmd(ga: Graph, gb: Graph, cfg: TmdConfig) -> float:
    """Tree mover's distance at depth ``cfg.depth``.

    Non-negative, zero for identical graphs, and symmetric bit for bit (see
    :func:`_distances`).  Values are exact matching sums (no normalization
    by multiset size).  Each call builds both graphs' plans anew; callers
    with many pairs should use :func:`pairwise_matrix`.
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
    """All-pairs tree mover's distances over a dataset, each value ``tmd``
    of its pair bit for bit."""
    n = len(ds)
    vals = np.fromiter(_distances(list(ds), itertools.combinations(range(n), 2), cfg),
                       dtype=np.float64, count=n * (n - 1) // 2)
    return DistanceMatrix(n, "tmd", cfg.depth, cfg.weights.spec_string(), vals)
