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
from .graphs import Dataset, Graph, make_dataset
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


def kmedoids(d: DistanceMatrix, k: int, *, trace: list | None = None) -> Selection:
    """PAM-style k-medoids: greedy BUILD, then best-improvement exchanges.

    The exchange phase alternates two neighborhoods: single medoid swaps
    (steepest descent, as in classic PAM) and, once those converge, paired
    swaps of two medoids at a time.  The pair moves matter: a single-swap
    local optimum can park two medoids inside one cluster and leave another
    cluster uncovered, and no one-at-a-time move escapes that.  Pair sweeps
    are skipped on instances large enough that the sweep would dominate the
    runtime; single swaps always run.

    Each sweep scores whole candidate sets at once: every candidate's
    objective is the mean of one contiguous row of length n in a batched
    reduction, which numpy sums in the same order as a 1-D mean.  The
    selections, objectives and trace are therefore bit-identical to scoring
    one swap at a time in ascending scan order and keeping only strictly
    better moves (``np.argmin`` keeps the first of equal minima).

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
    for _ in range(k):
        cands = np.flatnonzero(~taken)
        objs = np.minimum(full[cands], best_dist).mean(axis=1)
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
    pair_budget = 200_000
    run_pairs = k >= 2 and math.comb(k, 2) * math.comb(n - k, 2) <= pair_budget
    while True:
        best_swap, best_obj = None, objective
        others = [i for i in range(n) if i not in chosen]
        rows = full[others]
        for out in chosen:
            rest = [c for c in chosen if c != out]
            rest_min = full[:, rest].min(axis=1, initial=np.inf)
            objs = np.minimum(rows, rest_min).mean(axis=1)
            j = int(np.argmin(objs))
            if objs[j] < best_obj:
                best_swap, best_obj = ([out], [others[j]]), float(objs[j])
        if best_swap is None and run_pairs:
            for outs in itertools.combinations(chosen, 2):
                rest = [c for c in chosen if c not in outs]
                rest_rows = np.minimum(
                    rows, full[:, rest].min(axis=1, initial=np.inf))
                # pairs (a, b) with b > a: one reduction per first index a
                for ia, a in enumerate(others[:-1]):
                    objs = np.minimum(rest_rows[ia + 1:], full[a]).mean(axis=1)
                    j = int(np.argmin(objs))
                    if objs[j] < best_obj:
                        best_swap = (list(outs), [a, others[ia + 1 + j]])
                        best_obj = float(objs[j])
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


def wl_distance(ga: Graph, gb: Graph, iterations: int) -> float:
    """Pairwise convenience wrapper over :func:`wl_pseudometric_matrix`."""
    ds = make_dataset([ga, gb])
    return wl_pseudometric_matrix(ds, iterations).value(0, 1)
