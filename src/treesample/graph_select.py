"""Medoid selection over graph datasets, plus baseline distance matrices.

The selection objective is the mean distance from each graph to its nearest
medoid.  Cluster sizes double as sample weights: training on the medoids
weighted by cluster size approximates training on everything, with error
controlled by the objective value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .config import TmdConfig
from .errors import ConfigError, _require_int, _seeded_rng, require_finite
from .graphs import Dataset
from .tmd import DistanceMatrix
from .treenorm import feature_norms


@dataclass
class Selection:
    """A set of medoid indices with cluster weights.

    ``tau[j]`` counts the graphs whose nearest medoid is ``indices[j]`` (ties
    toward the smallest medoid index); the taus sum to the dataset size.
    ``objective`` is the mean nearest-medoid distance, or None when no
    distance matrix was available (pure random selection).
    """

    indices: list[int]
    tau: list[int]
    objective: float | None
    k = property(lambda self: len(self.indices))

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "indices": list(self.indices), "tau": list(self.tau),
                           "objective": self.objective}, sort_keys=True)


def _assign(full: np.ndarray, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Position in ``idx`` of each graph's nearest medoid, and its distance.

    ``full`` is the square distance matrix.  Ties resolve to the first
    position, i.e. the smallest medoid index when ``idx`` is sorted.
    """
    cols = full[:, idx]
    choice = np.argmin(cols, axis=1)
    return choice, cols[np.arange(full.shape[0]), choice]


def nearest_medoid(d: DistanceMatrix, indices) -> tuple[np.ndarray, np.ndarray]:
    """Each graph's nearest medoid (a dataset index) and its distance to it.

    Ties resolve to the smallest medoid index.  The mean of the distances is
    the selection objective, and counting the owners gives ``Selection.tau``.
    """
    idx = sorted(_require_int(i, "medoid index", 0, d.n - 1) for i in indices)
    if not idx:
        raise ConfigError("medoid index set must be non-empty")
    if len(set(idx)) != len(idx):
        raise ConfigError(f"duplicate medoid indices: {idx}")
    choice, near = _assign(d.full(), idx)
    return np.asarray(idx, dtype=np.int64)[choice], near


def _checked_full(d: DistanceMatrix) -> np.ndarray:
    """``d.full()``, refusing row sums past the float range: entries are
    finite and non-negative, so finite row sums keep every mean of
    entry-wise row minima finite."""
    full = d.full()
    with np.errstate(over="ignore"):  # refused below
        require_finite(full.sum(axis=1), "a row sum of the distance matrix")
    return full


def _selection(full: np.ndarray, idx: list[int]) -> Selection:
    """The selection of sorted medoids ``idx`` on a :func:`_checked_full` matrix."""
    choice, near = _assign(full, idx)
    return Selection(idx, np.bincount(choice, minlength=len(idx)).tolist(), float(near.mean()))


# pair sweeps run while C(k, 2) * C(n - k, 2) candidate pairs stay within this
_PAIR_BUDGET = 200_000
# float64 entries (256 KiB) in one block of BUILD's or a sweep's batched reduction
_BLOCK_ENTRIES = 1 << 15


def _single_swap(full: np.ndarray, chosen: list[int], others: np.ndarray,
                 objective: float) -> tuple[tuple | None, float]:
    """The first best single swap ``([out], [inc])`` whose objective is below
    ``objective``, and that objective; ``(None, objective)`` if none is.

    One pass over the non-medoid rows estimates every swap from each point's
    owner (its first nearest medoid), ``near`` and ``sec`` (its nearest and
    second-nearest medoid distance, ``inf`` when k = 1), as FasterPAM does:
    swapping ``out`` for ``j`` is estimated as ``(sum_i min(f_ji, near_i) +
    sum_{i owned by out} [min(f_ji, sec_i) - min(f_ji, near_i)]) / n``.  Only
    the swaps whose estimate is at most ``min(best estimate, objective) *
    (1 + 1e-9)`` are scored exactly, by the row mean of ``min(f_j,
    where(owner == out, sec, near))``, whose second operand equals the
    remaining medoids' column minimum bit for bit.  The scan keeps the
    earliest ``out``, then the smallest ``j``, with a strict ``<``.

    The pruning never drops the best swap.  The estimate and the exact mean
    each add at most n + 2 non-negative float terms, and such a sum is
    monotone and within (n + 2) * 2**-53 (relative) of the real sum.  So the
    two differ by at most ~2 (n + 2) * 2**-53 relative, far below ``1e-9``
    for any n whose matrix fits in memory, and every exact minimiser below
    ``objective`` is among the swaps scored exactly.
    """
    n, k = full.shape[0], len(chosen)
    cols = full[:, chosen]
    at = np.arange(n)
    owner = np.argmin(cols, axis=1)
    near = cols[at, owner]
    cols[at, owner] = np.inf
    sec = cols.min(axis=1)
    # columns grouped by owner, so that each owner's points are one segment
    order = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=k)
    owners = np.flatnonzero(sizes)  # a medoid that ties an earlier one owns none
    starts = (np.cumsum(sizes) - sizes)[owners]
    near_seg, sec_seg = near[order], sec[order]
    m = len(others)
    est = np.empty((m, k))
    step = max(1, _BLOCK_ENTRIES // n)
    rows_buf, low_buf = np.empty((2, min(step, m), n))  # reused by every block
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        rows, low = rows_buf[:hi - lo], low_buf[:hi - lo]
        np.take(np.take(full, others[lo:hi], axis=0, out=rows), order, axis=1, out=low)
        np.minimum(low, sec_seg, out=rows)
        np.minimum(low, near_seg, out=low)
        rows -= low  # what each point adds when its owner leaves
        est[lo:hi] = low.sum(axis=1)[:, None]
        est[lo:hi, owners] += np.add.reduceat(rows, starts, axis=1)
    est /= n
    bound = min(est.min(), objective) * (1 + 1e-9)
    best, best_obj = None, objective
    rescore = est <= bound
    for out in np.flatnonzero(rescore.any(axis=0)).tolist():
        js = np.flatnonzero(rescore[:, out])
        rest = np.where(owner == out, sec, near)
        for lo in range(0, len(js), step):  # on tied distances every swap is rescored
            objs = np.minimum(full[others[js[lo:lo + step]]], rest).mean(axis=1)
            j = int(np.argmin(objs))
            if objs[j] < best_obj:
                best, best_obj = ([chosen[out]], [int(others[js[lo + j]])]), float(objs[j])
    return best, best_obj


def _pair_survivors(rows: np.ndarray, best_obj: float) -> tuple | None:
    """The pairs ``(a, b)``, ``b > a``, that a lower bound cannot rule out
    against ``best_obj``, as two index arrays in scan order; None when more
    than half of the pairs survive.

    Row ``c`` of ``rows`` holds ``g_c(i) = min(f_ci, r_i)``, with ``r`` the
    remaining medoids' column minimum.  Since ``min(x, y) = x + y - max(x,
    y)`` and ``max(g_a(i), g_b(i)) <= C_i = max_c g_c(i)``, the objective of
    the pair is at least ``S_a + S_b - C``, with ``S_a`` the mean of row
    ``a`` and ``C`` the mean of the ``C_i``.  A pair survives when that
    bound is at most ``best_obj + 1e-9 * C``.

    No pair whose exact objective is below ``best_obj`` is ruled out.  Each
    mean adds at most n non-negative float terms, so it is within ~n *
    2**-53 (relative) of its real value.  ``S_a``, ``S_b`` and the
    objective are at most ``C``, so the computed bound and objective are
    within ~4 n * 2**-53 * ``C`` of their real values together, far below
    the slack for any n whose matrix fits in memory.  If the sum of the
    ``C_i`` overflows, ``C`` is ``inf`` and every pair survives.
    """
    m = len(rows)
    means = rows.mean(axis=1)
    with np.errstate(over="ignore"):  # an infinite C keeps every pair
        cbar = rows.max(axis=0).mean()
        bound = np.add.outer(means, means)
        bound -= cbar
        keep = bound <= best_obj + 1e-9 * cbar
    upper = np.triu(keep, 1)  # the pairs b > a
    if 4 * np.count_nonzero(upper) > m * (m - 1):
        return None
    return np.nonzero(upper)  # row-major: the scan order


def _pair_swap(full: np.ndarray, chosen: list[int], others: np.ndarray,
               objective: float) -> tuple[tuple | None, float]:
    """The first best pair swap ``(outs, [a, b])`` whose objective is below
    ``objective``, and that objective; ``(None, objective)`` if none is.

    Candidates run in the scan order ``outs``, then ``a``, then ``b > a``.
    For each ``outs``, :func:`_pair_survivors` rules out the pairs whose
    lower bound exceeds the running best; none of them could replace it.
    The survivors are scored exactly, in scan order, in chunks of at most
    ``_BLOCK_ENTRIES`` entries, and a chunk's first minimum is the scan's.

    When more than half of the pairs survive (as at k = 2, where no medoid
    remains and nearly every pair does), gathering them costs more than the
    dense scan, which scores one block of first indices ``a`` at a
    time as one reduction over (a, b, n) of at most ``_BLOCK_ENTRIES``
    entries (one ``a`` when its pairs alone are more).  A block also scores
    ``b <= a`` where its rows overlap, but none of those wins: ``b < a``
    repeats the value of the pair ``(b, a)``, scanned earlier, and ``b = a``
    is no better than the single swap of one of ``outs`` for ``a``, which is
    not below ``objective`` because :func:`kmedoids` calls this only at a
    single-swap local optimum.
    """
    n, m = full.shape[0], len(others)
    step = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty(max(_BLOCK_ENTRIES, (m - 1) * n))  # reused by every dense block
    best, best_obj = None, objective
    for outs in itertools.combinations(chosen, 2):
        rest = [c for c in chosen if c not in outs]
        rows = full[others]  # row b holds min(f_b, rest's min)
        np.minimum(rows, full[:, rest].min(axis=1, initial=np.inf), out=rows)
        survivors = _pair_survivors(rows, best_obj)
        if survivors is not None:
            firsts, seconds = survivors
            for lo in range(0, len(firsts), step):
                objs = np.minimum(rows[seconds[lo:lo + step]],
                                  rows[firsts[lo:lo + step]]).mean(axis=1)
                f = int(np.argmin(objs))
                if objs[f] < best_obj:
                    best = (list(outs), [int(others[firsts[lo + f]]),
                                         int(others[seconds[lo + f]])])
                    best_obj = float(objs[f])
        else:
            lo = 0
            while lo < m - 1:  # first indices lo..hi-1, second lo+1..m-1
                width = m - 1 - lo
                hi = min(m - 1, lo + max(1, _BLOCK_ENTRIES // (width * n)))
                block = buf[:(hi - lo) * width * n].reshape(hi - lo, width, n)
                objs = np.minimum(rows[lo + 1:], rows[lo:hi, None], out=block).mean(axis=2)
                f = int(np.argmin(objs))
                if objs.flat[f] < best_obj:
                    a, b = divmod(f, width)
                    best = (list(outs), [int(others[lo + a]), int(others[lo + 1 + b])])
                    best_obj = float(objs.flat[f])
                lo = hi
    return best, best_obj


def kmedoids(d: DistanceMatrix, k: int, *, trace: list | None = None) -> Selection:
    """PAM-style k-medoids: greedy BUILD, then best-improvement exchanges.

    The exchange phase alternates two neighborhoods: single medoid swaps
    (steepest descent, as in classic PAM) and, once those converge, paired
    swaps of two medoids at a time.  The pair moves matter: a single-swap
    local optimum can park two medoids inside one cluster and leave another
    cluster uncovered, and no one-at-a-time move escapes that.  Pair sweeps
    run only while C(k, 2) * C(n - k, 2) <= 200,000 (the pair-sweep budget),
    where they stay cheap; single swaps always run.

    Every exactly scored candidate is the mean of one contiguous row of
    length n in a batched reduction, which numpy sums in the same order as a
    1-D mean, so the selections, objectives and trace are bit-identical to
    scoring one swap at a time in ascending scan order and keeping only
    strictly better moves (``np.argmin`` keeps the first of equal minima).
    :func:`_single_swap` scores exactly only the swaps that an estimate
    cannot rule out, and :func:`_pair_swap` only the pairs that a lower
    bound cannot, or blocks of first indices when most pairs survive.
    BUILD and both sweeps reduce at most 32,768 entries (256 KiB) at a time
    where one row fits.

    Exchanges run until no swap is strictly better: each accepted swap
    strictly lowers the objective of the medoid set, so no set repeats and
    the search ends.  Pass a list as ``trace`` to collect the objective
    after BUILD and after each accepted exchange.  ``k = n`` takes every
    index, and ``tau`` follows the usual tie rule.  A row whose sum
    overflows raises :class:`NumericalOverflowError`.
    """
    n = d.n
    k = _require_int(k, "k", 1, n)
    # symmetric, so row i equals column i bit for bit; candidates are rows
    full = _checked_full(d)
    if k == n:  # no search: BUILD would take every index, leaving no swap
        sel = _selection(full, list(range(n)))
        if trace is not None:
            trace.append(sel.objective)
        return sel

    # BUILD: repeatedly add the index that lowers the objective most
    taken = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    step = max(1, _BLOCK_ENTRIES // n)
    for _ in range(k):
        cands = np.flatnonzero(~taken)
        objs = np.concatenate([np.minimum(full[cands[lo:lo + step]], best_dist).mean(axis=1)
                               for lo in range(0, len(cands), step)])
        best_idx = int(cands[np.argmin(objs)])
        taken[best_idx] = True
        best_dist = np.minimum(best_dist, full[best_idx])
    chosen = np.flatnonzero(taken).tolist()
    objective = float(best_dist.mean())
    if trace is not None:
        trace.append(objective)

    # exchange phase: accept the best strictly improving move until none
    # exists, trying single swaps first and pair swaps only at single-swap
    # local optima
    run_pairs = k >= 2 and math.comb(k, 2) * math.comb(n - k, 2) <= _PAIR_BUDGET
    while True:
        others = np.delete(np.arange(n), chosen)
        best_swap, best_obj = _single_swap(full, chosen, others, objective)
        if best_swap is None and run_pairs:
            best_swap, best_obj = _pair_swap(full, chosen, others, objective)
        if best_swap is None:
            break
        outs, incs = best_swap
        chosen = sorted([c for c in chosen if c not in outs] + incs)
        objective = best_obj
        if trace is not None:
            trace.append(objective)

    return _selection(full, chosen)


def random_selection(n: int, k: int, seed: int,
                     d: DistanceMatrix | None = None) -> Selection:
    """Uniformly random medoid set (baseline).

    With a distance matrix the weights and objective are computed against it;
    without one the weights are uniform (n // k each, remainder spread over
    the first medoids) and the objective is None.  ``seed`` is an integer >= 0.
    """
    n = _require_int(n, "n", 0, None)
    k = _require_int(k, "k", 1, n)
    rng = _seeded_rng(seed)
    indices = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    if d is not None:
        if d.n != n:
            raise ConfigError(f"distance matrix is over {d.n} items, not {n}")
        return _selection(_checked_full(d), indices)
    base, extra = divmod(n, k)
    tau = [base + (1 if j < extra else 0) for j in range(k)]
    return Selection(indices, tau, None)


# ---------------------------------------------------------------------------
# baseline distance matrices
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # checked below
def feature_distance_matrix(ds: Dataset, cfg: TmdConfig) -> DistanceMatrix:
    """Distance between mean feature vectors (structure-blind baseline)."""
    n = len(ds)
    means = np.zeros((n, max(1, ds.feature_dim)))
    for i, g in enumerate(ds):
        if g.node_count:
            means[i, :g.feature_dim] = g.features.mean(axis=0)
    i, j = np.triu_indices(n, 1)
    vals = require_finite(feature_norms(means[i] - means[j], cfg.feature_norm),
                          "a mean feature vector or the distance of two")
    return DistanceMatrix(n, "feature", 0, "", vals)


def wl_pseudometric_matrix(ds: Dataset, iterations: int) -> DistanceMatrix:
    """Kernel-induced distance from subtree-pattern histograms.

    ``D(G, G') = sqrt(k(G,G) + k(G',G') - 2 k(G,G'))`` with the histogram
    inner-product kernel summed over refinement rounds 0..iterations, i.e.
    the euclidean distance between the graphs' label counts over all
    (round, label) columns.  Every node starts with one label (features are
    ignored); each round relabels it by its label and its neighbours' sorted
    labels.  The counts are integers, so the distance is exact in any column order.
    """
    iterations = _require_int(iterations, "iterations", 0, None)
    n = len(ds)
    sizes = [g.node_count for g in ds]
    graph_of = np.repeat(np.arange(n, dtype=np.int64), sizes)
    nbrs = []  # neighbours of every node of the dataset, by flat node index
    for g, offset in zip(ds, itertools.accumulate(sizes, initial=0)):
        indptr, indices = g.csr()
        flat, ptr = (indices + offset).tolist(), indptr.tolist()
        nbrs.extend(flat[lo:hi] for lo, hi in zip(ptr, ptr[1:]))
    labels = [0] * len(nbrs)
    columns = [np.array(sizes, dtype=np.int64).reshape(n, 1)]
    for _ in range(iterations):
        compress: dict = {}
        labels = [compress.setdefault((labels[v], tuple(sorted(labels[u] for u in nb))),
                                      len(compress))
                  for v, nb in enumerate(nbrs)]
        k = len(compress)
        columns.append(np.bincount(graph_of * k + np.asarray(labels, dtype=np.int64),
                                   minlength=n * k).reshape(n, k))
    vals = pdist(np.hstack(columns)) if n > 1 else np.zeros(0)
    return DistanceMatrix(n, "wl", iterations, "", vals)
