"""Shared random generators and reference routines for the test suite."""

import itertools
import math
from collections import deque

import numpy as np

from treesample import (ConfigError, DistanceMatrix, Graph, NodeSubsample,
                        ScaleLimitError, Selection, TmdConfig, WeightFn,
                        cluster_sizes, const_weights, feature_norms,
                        induced_subgraph, medoids_objective, tree_norm,
                        wl_histograms)
from treesample.node_select import new_candidate_set
from treesample.oracles import _BRUTE_SUBSET_LIMIT, _padded_matching
from treesample.tmd import _cross_distances


def random_graph(rng, n_max=8, feature_dim=2, p=0.4, n_min=1):
    """One small G(n, p) draw with standard normal features."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges, rng.standard_normal((n, feature_dim)))


def cfg(depth, w=1.0, norm="l2"):
    return TmdConfig(depth=depth, weights=const_weights(w), feature_norm=norm)


def random_table_cfg(rng, depth, norm="l2"):
    """Config with a random positive weight table covering the depth."""
    table = tuple(float(x) for x in rng.uniform(0.2, 2.5, size=max(1, depth - 1)))
    return TmdConfig(depth=depth, weights=WeightFn("table", table=table),
                     feature_norm=norm)


def reference_tmd_tables(ga, gb, cfg):
    """Per-block dynamic program: one padded matching per node pair and level.

    ``td[u, v]`` is the distance between the depth-L computation trees of u and
    v; ``bl_a``/``bl_b`` are each tree's distance to a blank tree.
    """
    na, nb = ga.node_count, gb.node_count
    base = _cross_distances(ga.features, gb.features, cfg.feature_norm)
    xa = feature_norms(ga.features, cfg.feature_norm)
    xb = feature_norms(gb.features, cfg.feature_norm)
    nbrs_a = [ga.neighbors(u) for u in range(na)]
    nbrs_b = [gb.neighbors(v) for v in range(nb)]

    td, bl_a, bl_b = base, xa, xb
    for d in range(2, cfg.depth + 1):
        w = cfg.level_weight(d - 1)
        new_td = base.copy()
        for u in range(na):
            nu = nbrs_a[u]
            row_blanks = bl_a[nu]
            for v in range(nb):
                nv = nbrs_b[v]
                if nu.size == 0 and nv.size == 0:
                    continue
                new_td[u, v] += w * _padded_matching(
                    td[np.ix_(nu, nv)], row_blanks, bl_b[nv])
        new_bl_a = xa + w * np.array([math.fsum(bl_a[nu]) for nu in nbrs_a])
        new_bl_b = xb + w * np.array([math.fsum(bl_b[nv]) for nv in nbrs_b])
        td, bl_a, bl_b = new_td, new_bl_a, new_bl_b
    return td, bl_a, bl_b


def reference_tmd(ga, gb, cfg):
    """Tree mover's distance from :func:`reference_tmd_tables`."""
    if ga.node_count == 0 and gb.node_count == 0:
        return 0.0
    if ga.node_count == 0:
        return tree_norm(gb, cfg)
    if gb.node_count == 0:
        return tree_norm(ga, cfg)
    td, bl_a, bl_b = reference_tmd_tables(ga, gb, cfg)
    return _padded_matching(td, bl_a, bl_b)


def reference_feature_distance_matrix(ds, cfg):
    """Mean-feature distances, one pair at a time (the original double loop)."""
    n = len(ds)
    means = np.zeros((n, max(1, ds.feature_dim)))
    for i, g in enumerate(ds):
        if g.node_count:
            means[i, :g.feature_dim] = g.features.mean(axis=0)
    vals = np.zeros(n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            vals[k] = feature_norms((means[i] - means[j])[None, :], cfg.feature_norm)[0]
            k += 1
    return DistanceMatrix(n, "feature", 0, "", vals)


def reference_kmedoids(d, k, seed=0, max_iter=100, trace=None):
    """k-medoids scored one candidate swap at a time (the loop definition).

    Same search and tie-breaking as :func:`treesample.kmedoids`: every
    candidate is a separate gather, min and mean, in ascending scan order,
    and only a strictly lower objective replaces the best so far.
    """
    n = d.n
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    full = d.full()
    if k == n:
        sel = list(range(n))
        if trace is not None:
            trace.append(0.0)
        return Selection("tmd-medoids", k, seed, sel, [1] * n, 0.0)

    # BUILD: repeatedly add the index that lowers the objective most
    chosen: list[int] = []
    best_dist = np.full(n, np.inf)
    for _ in range(k):
        best_idx, best_obj = -1, np.inf
        for cand in range(n):
            if cand in chosen:
                continue
            obj = float(np.minimum(best_dist, full[:, cand]).mean())
            if obj < best_obj:
                best_idx, best_obj = cand, obj
        chosen.append(best_idx)
        best_dist = np.minimum(best_dist, full[:, best_idx])
    chosen.sort()
    objective = medoids_objective(d, chosen)
    if trace is not None:
        trace.append(objective)

    # exchange phase: accept the best strictly improving move until none
    # exists, trying single swaps first and pair swaps only at single-swap
    # local optima
    pair_budget = 200_000
    run_pairs = k >= 2 and math.comb(k, 2) * math.comb(n - k, 2) <= pair_budget
    for _ in range(max_iter):
        best_swap, best_obj = None, objective
        for out in chosen:
            rest = [c for c in chosen if c != out]
            for inc in range(n):
                if inc in chosen:
                    continue
                obj = float(full[:, rest + [inc]].min(axis=1).mean())
                if obj < best_obj:
                    best_swap, best_obj = ([out], [inc]), obj
        if best_swap is None and run_pairs:
            others = [i for i in range(n) if i not in chosen]
            for outs in itertools.combinations(chosen, 2):
                rest = [c for c in chosen if c not in outs]
                rest_min = (full[:, rest].min(axis=1) if rest
                            else np.full(n, np.inf))
                for incs in itertools.combinations(others, 2):
                    obj = float(np.minimum(
                        rest_min, full[:, incs].min(axis=1)).mean())
                    if obj < best_obj:
                        best_swap, best_obj = (list(outs), list(incs)), obj
        if best_swap is None:
            break
        outs, incs = best_swap
        chosen = sorted([c for c in chosen if c not in outs] + incs)
        objective = best_obj
        if trace is not None:
            trace.append(objective)

    objective = medoids_objective(d, chosen)
    return Selection("tmd-medoids", k, seed, chosen, cluster_sizes(d, chosen), objective)


def _bfs_distances(g, start):
    dist = np.full(g.node_count, -1, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def reference_k_bfs_candidates(g, k):
    """BFS balls from one Python BFS per node (the original loop)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    cands = new_candidate_set()
    for v in range(g.node_count):
        dist = _bfs_distances(g, v)
        reached = dist[dist >= 0]
        radii = np.sort(np.unique(reached))
        counts = np.array([(reached <= r).sum() for r in radii])
        ok = radii[counts <= k]
        radius = int(ok[-1]) if ok.size else 0
        ball = tuple(int(u) for u in np.flatnonzero((dist >= 0) & (dist <= radius)))
        cands.add(ball, f"bfs:{v}")
    return cands


def _wl_kernel(ha, hb):
    total = 0.0
    for ca, cb in zip(ha, hb):
        small, large = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
        total += sum(cnt * large.get(lbl, 0) for lbl, cnt in small.items())
    return total


def reference_wl_pseudometric_matrix(ds, iterations):
    """WL distances from the kernel formula, one pair at a time (the original loop)."""
    n = len(ds)
    hists = wl_histograms(ds, iterations)
    self_k = [_wl_kernel(h, h) for h in hists]
    vals = np.zeros(n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            rad = self_k[i] + self_k[j] - 2.0 * _wl_kernel(hists[i], hists[j])
            if rad < -1e-9:
                raise ArithmeticError(
                    f"kernel distance radicand {rad} below tolerance for pair ({i},{j})")
            vals[k] = math.sqrt(max(rad, 0.0))
            k += 1
    return DistanceMatrix(n, "wl", iterations, "", vals)


def reference_subset_tree_norms(g, subsets, cfg):
    """One induced subgraph and one tree norm per subset (the original loop)."""
    return np.array([tree_norm(induced_subgraph(g, s), cfg) for s in subsets],
                    dtype=np.float64)


def reference_select_subset(g, candidates, cfg, graph_id=0):
    """Candidate selection scored one induced subgraph at a time (the
    original loop): largest norm, ties to the smallest sorted subset."""
    if len(candidates) == 0:
        raise ConfigError("candidate set is empty")
    full = tree_norm(g, cfg)
    best = None
    for subset, tag in zip(candidates.subsets, candidates.tags):
        val = tree_norm(induced_subgraph(g, subset), cfg)
        if best is None or val > best[0] or (val == best[0] and subset < best[1]):
            best = (val, subset, tag)
    val, subset, tag = best
    return NodeSubsample(graph_id, subset, full, val, full - val, tag)


def reference_brute_force_select(g, k, cfg, graph_id=0):
    """Exhaustive k-subset search, one induced subgraph at a time (the
    original loop): the first subset in lexicographic order wins ties."""
    n = g.node_count
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > _BRUTE_SUBSET_LIMIT:
        raise ScaleLimitError(f"C({n},{k}) exceeds the enumeration limit")
    full = tree_norm(g, cfg)
    best_val, best_set = -np.inf, None
    for combo in itertools.combinations(range(n), k):
        val = tree_norm(induced_subgraph(g, combo), cfg)
        if val > best_val:
            best_val, best_set = val, combo
    return NodeSubsample(graph_id, best_set, full, best_val, full - best_val,
                         "brute")
