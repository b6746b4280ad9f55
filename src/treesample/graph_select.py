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
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .config import TmdConfig
from .errors import ConfigError, DatasetError
from .graphs import Dataset, Graph
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

    method: str
    k: int
    seed: int
    indices: list[int]
    tau: list[int]
    objective: float | None

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method, "k": self.k, "seed": self.seed,
            "indices": list(self.indices), "tau": list(self.tau),
            "objective": self.objective,
        }, sort_keys=True)


def save_selection(sel: Selection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sel.to_json() + "\n")


def load_selection(path) -> Selection:
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    return Selection(rec["method"], rec["k"], rec["seed"],
                     list(rec["indices"]), list(rec["tau"]), rec["objective"])


def _check_indices(n: int, indices) -> list[int]:
    idx = sorted(int(i) for i in indices)
    if len(idx) == 0:
        raise ConfigError("medoid index set must be non-empty")
    if len(set(idx)) != len(idx):
        raise ConfigError(f"duplicate medoid indices: {idx}")
    if idx[0] < 0 or idx[-1] >= n:
        raise ConfigError(f"medoid index outside 0..{n - 1}: {idx}")
    return idx


def _assign(full: np.ndarray, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Position in ``idx`` of each graph's nearest medoid, and its distance.

    ``full`` is the square distance matrix.  Ties resolve to the first
    position, i.e. the smallest medoid index when ``idx`` is sorted.
    """
    cols = full[:, idx]
    choice = np.argmin(cols, axis=1)
    return choice, cols[np.arange(full.shape[0]), choice]


def nearest_medoid(d: DistanceMatrix, indices) -> np.ndarray:
    """Index (into the dataset) of each graph's nearest medoid.

    Ties resolve to the smallest medoid index.
    """
    idx = _check_indices(d.n, indices)
    choice, _ = _assign(d.full(), idx)
    return np.asarray(idx, dtype=np.int64)[choice]


def medoids_objective(d: DistanceMatrix, indices) -> float:
    """Mean distance from every graph to its nearest medoid."""
    idx = _check_indices(d.n, indices)
    return float(_assign(d.full(), idx)[1].mean())


def cluster_sizes(d: DistanceMatrix, indices) -> list[int]:
    """Number of graphs assigned to each medoid, in medoid-index order."""
    idx = _check_indices(d.n, indices)
    choice, _ = _assign(d.full(), idx)
    return np.bincount(choice, minlength=len(idx)).tolist()


def _selection(method: str, k: int, seed: int, full: np.ndarray,
               idx: list[int]) -> Selection:
    choice, near = _assign(full, idx)
    return Selection(method, k, seed, idx,
                     np.bincount(choice, minlength=len(idx)).tolist(),
                     float(near.mean()))


def kmedoids(d: DistanceMatrix, k: int, seed: int = 0, max_iter: int = 100,
             trace: list | None = None) -> Selection:
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

    Fully deterministic; ``seed`` is recorded for provenance only.  The
    objective never increases between exchange iterations.  Pass a list as
    ``trace`` to collect the objective after BUILD and after each accepted
    exchange.  A NaN or infinite distance raises :class:`DatasetError`.
    """
    n = d.n
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    if k == n:
        sel = list(range(n))
        if trace is not None:
            trace.append(0.0)
        return Selection("tmd-medoids", k, seed, sel, [1] * n, 0.0)
    # symmetric, so row i equals column i bit for bit; candidates are rows
    full = d.full()
    if not np.isfinite(full).all():
        # argmin would pick a NaN candidate that a strict-< scan skips
        raise DatasetError("distance matrix has non-finite entries")

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
    for _ in range(max_iter):
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

    return _selection("tmd-medoids", k, seed, full, chosen)


def random_selection(n: int, k: int, seed: int,
                     d: DistanceMatrix | None = None) -> Selection:
    """Uniformly random medoid set (baseline).

    With a distance matrix the weights and objective are computed against it;
    without one the weights are uniform (n // k each, remainder spread over
    the first medoids) and the objective is None.
    """
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)
    indices = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    if d is not None:
        if d.n != n:
            raise ConfigError(f"distance matrix is over {d.n} items, not {n}")
        return _selection("random", k, seed, d.full(), indices)
    base, extra = divmod(n, k)
    tau = [base + (1 if j < extra else 0) for j in range(k)]
    return Selection("random", k, seed, indices, tau, None)


# ---------------------------------------------------------------------------
# baseline distance matrices
# ---------------------------------------------------------------------------

def feature_distance_matrix(ds: Dataset, cfg: TmdConfig) -> DistanceMatrix:
    """Distance between mean feature vectors (structure-blind baseline)."""
    n = len(ds)
    means = np.zeros((n, max(1, ds.feature_dim)))
    for i, g in enumerate(ds):
        if g.node_count:
            means[i, :g.feature_dim] = g.features.mean(axis=0)
    i, j = np.triu_indices(n, 1)
    vals = feature_norms(means[i] - means[j], cfg.feature_norm)
    return DistanceMatrix(n, "feature", 0, "", vals)


def wl_histograms(ds: Dataset, iterations: int) -> list[list[Counter]]:
    """Per-graph label histograms for refinement rounds 0..iterations.

    Initial labels are constant (structural refinement; continuous features
    are ignored).  The label dictionary is shared across the dataset so
    histograms are comparable.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    labels = [np.zeros(g.node_count, dtype=np.int64) for g in ds]
    out = [[Counter(map(int, lab)) for lab in labels]]
    compress: dict = {}
    for _ in range(iterations):
        new_labels = []
        for g, lab in zip(ds, labels):
            cur = np.zeros(g.node_count, dtype=np.int64)
            for v in range(g.node_count):
                sig = (int(lab[v]), tuple(sorted(int(lab[u]) for u in g.neighbors(v))))
                if sig not in compress:
                    compress[sig] = len(compress)
                cur[v] = compress[sig]
            new_labels.append(cur)
        labels = new_labels
        out.append([Counter(map(int, lab)) for lab in labels])
    return [list(hists) for hists in zip(*out)] if len(ds) else []


def wl_pseudometric_matrix(ds: Dataset, iterations: int) -> DistanceMatrix:
    """Kernel-induced distance from subtree-pattern histograms.

    ``D(G, G') = sqrt(k(G,G) + k(G',G') - 2 k(G,G'))`` with the histogram
    inner-product kernel summed over refinement rounds 0..iterations, i.e.
    the euclidean distance between the graphs' label counts over all
    (round, label) columns.  The counts are integers, so the squared
    distance is exact.
    """
    n = len(ds)
    rows = [{(r, label): count for r, hist in enumerate(hists)
             for label, count in hist.items()}
            for hists in wl_histograms(ds, iterations)]
    columns = sorted(set().union(*rows))
    counts = np.array([[row.get(col, 0) for col in columns] for row in rows])
    vals = pdist(counts) if n > 1 else np.zeros(0)
    return DistanceMatrix(n, "wl", iterations, "", vals)


def wl_distance(ga: Graph, gb: Graph, iterations: int) -> float:
    """Pairwise convenience wrapper over :func:`wl_pseudometric_matrix`."""
    ds = Dataset([ga, gb], ga.feature_dim, "pair")
    return wl_pseudometric_matrix(ds, iterations).value(0, 1)
