"""Shared random generators and reference routines for the test suite."""

import hashlib
import importlib
import itertools
import json
import math
from collections import Counter, deque

import numpy as np
from scipy.optimize import linear_sum_assignment

from treesample import (ConfigError, Dataset, DistanceMatrix, ErmReport, Graph, NodeSubsample,
                        Selection, StabilityReport, TmdConfig, WeightFn, build_candidates,
                        const_weights, feature_norms, induced_subgraph, kmedoids,
                        layer_lipschitz, nearest_medoid, pairwise_matrix, random_gin, tmd,
                        tree_norm)
from treesample.node_select import mean_tmd
from treesample.oracles import (ScaleLimitError, _BRUTE_SUBSET_LIMIT, _padded_matching,
                                _permutations, abs_clipped_loss)
from treesample.tmd import _cross_distances

# the kernel module, for tests that patch or read its private names: the
# package attribute ``treesample.tmd`` is the function ``tmd``, which
# ``__init__`` re-exports over the submodule, so ``import treesample.tmd as m``
# binds the function
TMD_MODULE = importlib.import_module("treesample.tmd")


def relabelled_pair(seed: int) -> list[Graph]:
    """A G(8, 0.4) graph with N(0, 1) * 10 features and a copy with its nodes
    relabelled: distance 0, and readouts that may differ in the last bits,
    as the node sums add in another order."""
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
    feats = 10 * rng.standard_normal((8, 2))
    perm = rng.permutation(8)  # node v of the first graph is node perm[v] of the copy
    return [Graph(8, edges, feats, label=0),
            Graph(8, [(perm[u], perm[v]) for u, v in edges], feats[np.argsort(perm)], label=0)]


def random_graph(rng, n_max=8, feature_dim=2, p=0.4, n_min=1):
    """One small G(n, p) draw with standard normal features."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges, rng.standard_normal((n, feature_dim)))


def random_regular_edges(n: int, degree: int, seed: int) -> list[tuple[int, int]]:
    """Random ``degree``-regular simple graph via the pairing model.

    Draws stub matchings until one is simple (no loops, no parallel edges);
    for small constant degree this needs only a handful of attempts.
    """
    if n * degree % 2 != 0:
        raise ConfigError("n * degree must be even")
    if degree >= n:
        raise ConfigError(f"degree {degree} needs more than {n} nodes")
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        stubs = np.repeat(np.arange(n), degree)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        canon = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in pairs}
        if len(canon) == pairs.shape[0]:
            return sorted(canon)
    raise RuntimeError("pairing model failed to produce a simple graph")


def random_regular_graph(n: int, degree: int, seed: int,
                         feature_dim: int = 1) -> Graph:
    """Regular graph with unit features (used for runtime scaling checks)."""
    edges = random_regular_edges(n, degree, seed)
    return Graph(n, edges, np.ones((n, feature_dim)))


def cfg(depth, w=1.0, norm="l2"):
    return TmdConfig(depth=depth, weights=const_weights(w), feature_norm=norm)


def random_table_cfg(rng, depth, norm="l2"):
    """Config with a random positive weight table covering the depth."""
    table = tuple(float(x) for x in rng.uniform(0.2, 2.5, size=max(1, depth - 1)))
    return TmdConfig(depth=depth, weights=WeightFn("table", table),
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


def reference_solve_enumerated(blocks):
    """Exact matching values of small (P, q, q) blocks by a scan of all q!
    permutations (the original small-block solver).

    Vectorized sums locate every permutation within a relative 1e-9 of the
    minimum; ``fsum`` then re-evaluates those candidates exactly, once per
    distinct multiset of entries.
    """
    count, q = blocks.shape[0], blocks.shape[1]
    entries = blocks.reshape(count, q * q)[:, np.arange(q) * q + _permutations(q)]
    totals = entries.sum(axis=2)
    near = totals <= totals.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    block, perm = np.nonzero(near)
    cand = entries[block, perm]
    if block.size > count:
        cand = np.sort(cand, axis=1)
        order = np.lexsort((*cand.T[::-1], block))
        block, cand = block[order], cand[order]
        keep = np.ones(block.size, dtype=bool)
        keep[1:] = (block[1:] != block[:-1]) | (cand[1:] != cand[:-1]).any(axis=1)
        block, cand = block[keep], cand[keep]
    exact = np.array([math.fsum(row) for row in cand.tolist()])
    firsts = np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
    return np.minimum.reduceat(exact, firsts)


def reference_solve_lsap(blocks, r):
    """Exact matching values of (P, m, q) blocks of r real rows (and, if
    r < q, one blank row) with one ``linear_sum_assignment`` per block of
    r > 1 rows: the LSAP solver before few-map blocks were enumerated.  The
    value is the ``fsum`` of the picked entries and of the blank row, whose
    entries at the picked columns are zeroed."""
    count, q = blocks.shape[0], blocks.shape[2]
    real = blocks[:, :r]
    costs = real if r == q else real - blocks[:, r:r + 1]
    if r > 1:
        cols = np.array([linear_sum_assignment(c)[1] for c in costs])
    else:
        cols = costs.argmin(axis=2)
    at = np.arange(count)[:, None]
    picked = real[at, np.arange(r), cols]
    if r < q:
        rest = blocks[:, r].copy()
        rest[at, cols] = 0.0
        picked = np.concatenate((picked, rest), axis=1)
    return np.array([math.fsum(row) for row in picked.tolist()])


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


def medoid_objective(full, idx):
    """Mean distance from each row of the square matrix ``full`` to its
    nearest medoid in ``idx``."""
    return float(full[:, idx].min(axis=1).mean())


def reference_kmedoids(d, k, trace=None):
    """k-medoids scored one candidate swap at a time (the loop definition).

    Same search and tie-breaking as :func:`treesample.kmedoids`: every
    candidate is a separate gather, min and mean, in ascending scan order,
    and only a strictly lower objective replaces the best so far.  With
    ``k = n`` BUILD takes every index and no swap exists; ``tau`` counts
    each row's first nearest medoid, so ties go to the smallest index.
    """
    n = d.n
    if not (1 <= k <= n):
        raise ConfigError(f"k must be in 1..{n}, got {k}")
    full = d.full()

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
    objective = medoid_objective(full, chosen)
    if trace is not None:
        trace.append(objective)

    # exchange phase: accept the best strictly improving move until none
    # exists, trying single swaps first and pair swaps only at single-swap
    # local optima
    pair_budget = 200_000
    run_pairs = k >= 2 and math.comb(k, 2) * math.comb(n - k, 2) <= pair_budget
    while True:
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

    tau = np.bincount(np.argmin(full[:, chosen], axis=1), minlength=k).tolist()
    return Selection(chosen, tau, medoid_objective(full, chosen))


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
    """BFS balls from one Python BFS per node, each added through
    :func:`reference_candidate_add` (the original loop)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    cands = {}
    for v in range(g.node_count):
        dist = _bfs_distances(g, v)
        reached = dist[dist >= 0]
        radii = np.sort(np.unique(reached))
        counts = np.array([(reached <= r).sum() for r in radii])
        ok = radii[counts <= k]
        radius = int(ok[-1]) if ok.size else 0
        ball = tuple(int(u) for u in np.flatnonzero((dist >= 0) & (dist <= radius)))
        reference_candidate_add(cands, ball, f"bfs:{v}")
    return cands


def reference_core_numbers(g):
    """Core numbers by peeling one minimum-degree node at a time, an
    ``argmin`` over the live nodes per step (the original loop)."""
    n = g.node_count
    core = np.zeros(n, dtype=np.int64)
    degc = g.degrees().astype(np.int64)
    alive = np.ones(n, dtype=bool)
    level = 0
    for _ in range(n):
        candidates = np.flatnonzero(alive)
        v = int(candidates[np.argmin(degc[candidates])])
        level = max(level, int(degc[v]))
        core[v] = level
        alive[v] = False
        for u in g.neighbors(v):
            if alive[u]:
                degc[u] -= 1
    return core


def reference_candidate_add(cands, subset, tag):
    """Candidate insertion as first written, for every subset: sort and
    convert it, then keep it with its tag unless seen."""
    canon = tuple(sorted(int(v) for v in subset))
    if canon not in cands:
        cands[canon] = tag


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
    if not candidates:
        raise ConfigError("candidate set is empty")
    full = tree_norm(g, cfg)
    best = None
    for subset, tag in candidates.items():
        val = tree_norm(induced_subgraph(g, subset), cfg)
        if best is None or val > best[0] or (val == best[0] and subset < best[1]):
            best = (val, subset, tag)
    val, subset, tag = best
    return NodeSubsample(graph_id, subset, full, val, tag)


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
    return NodeSubsample(graph_id, best_set, full, best_val, "brute")


def reference_simple_edges(edges, n, problems):
    """Edge gate with a retry pass (the original two functions): sort first,
    and on anything but Python-int pairs convert every edge and sort again."""
    try:
        edges = list(edges)
        pairs = sorted((u, v) if u <= v else (v, u) for u, v in edges)
    except (TypeError, ValueError):  # a non-pair, or values that do not compare
        return reference_simple_edges(_reference_int_pairs(edges, problems), n, problems)
    top = math.inf if n is None else n
    found = []
    prev = None
    for e in pairs:
        u, v = e
        if type(u) is not int or type(v) is not int:
            return reference_simple_edges(_reference_int_pairs(edges, problems), n,
                                          problems)
        if u < 0 or v >= top:
            found.append(f"edge ({u},{v}) has an endpoint outside 0..{top - 1}")
        elif u == v:
            found.append(f"edge ({u},{v}) is a self-loop")
        elif e == prev:
            found.append(f"duplicate edge ({u},{v})")
        prev = e
    problems += found
    return pairs


def _reference_int_pairs(edges, problems):
    out = []
    for e in edges if isinstance(edges, list) else [edges]:  # list() refused it
        try:
            u, v = e
        except (TypeError, ValueError):
            u = v = None
        if (type(u) is int or isinstance(u, np.integer)) and \
                (type(v) is int or isinstance(v, np.integer)):
            out.append((int(u), int(v)))
        else:
            problems.append(f"edge {e!r} is not a pair of integers")
    return out


def reference_dataset_fingerprint(ds):
    """Dataset fingerprint over the edge list's int64 bytes (the original formula)."""
    h = hashlib.sha256()
    h.update(f"graphs={len(ds)};dim={ds.feature_dim}".encode())
    for g in ds:
        h.update(f"|n={g.node_count};label={g.label};edges=".encode())
        h.update(np.asarray(g.edges, dtype=np.int64).tobytes())
        h.update(b";features=")
        h.update(np.ascontiguousarray(g.features, dtype="<f8").tobytes())
    return h.hexdigest()


def _reference_layer(layer, z):
    """One GIN layer on the rows of ``z``: ``act(z @ W + b)``."""
    out = z @ layer.weight + layer.bias
    return np.maximum(out, 0.0) if layer.activation == "relu" else out


def reference_node_embeddings(model, g):
    """GIN node states with ``np.add.at`` neighbour sums (the original loop)."""
    z = g.features if g.node_count else np.zeros((0, model.layers[0].weight.shape[0]))
    eu, ev = g.edge_arrays()
    for layer in model.mp_layers:
        agg = np.zeros_like(z)
        if eu.size:
            np.add.at(agg, eu, z[ev])
            np.add.at(agg, ev, z[eu])
        z = _reference_layer(layer, z + model.eta * agg)
    return z


def reference_gin_forward(model, g):
    """One model's readout of one graph: :func:`reference_node_embeddings`,
    then the readout layer on the node sum as a one-row product (the
    original per-model forward)."""
    z = reference_node_embeddings(model, g)
    pooled = z.sum(axis=0) if z.shape[0] else np.zeros(z.shape[1])
    return _reference_layer(model.layers[-1], pooled[None, :])[0]


def reference_stability_report(model, pairs, cfg):
    """One config's ``stability_sweep`` report over graph pairs, as a loop
    of two :func:`reference_gin_forward` and one ``tmd`` call per pair; a
    zero-distance pair scores 0.0 if its gap is at most 1e-9 times the
    larger readout norm."""
    prod = math.prod(layer_lipschitz(model))
    ratios = []
    for ga, gb in pairs:
        ra, rb = reference_gin_forward(model, ga), reference_gin_forward(model, gb)
        num = float(np.linalg.norm(ra - rb))
        den = tmd(ga, gb, cfg) * prod
        if den != 0.0:
            ratios.append(num / den)
        elif num <= 1e-9 * max(np.linalg.norm(ra), np.linalg.norm(rb)):
            ratios.append(0.0)
        else:
            ratios.append(float("inf"))
    return StabilityReport(ratios)


def reference_subsample_dataset(ds, frac, cfg, seed=0):
    """``subsample_dataset`` with every candidate scored through
    :func:`reference_select_subset` (one induced subgraph per candidate)."""
    out = []
    for i, g in enumerate(ds):
        n = g.node_count
        if n == 0:
            out.append(NodeSubsample(i, (), 0.0, 0.0, "empty"))
            continue
        k = min(n, max(1, int(math.floor(frac * n + 0.5))))
        out.append(reference_select_subset(g, build_candidates(g, k, seed + i), cfg, i))
    return out


def medoid_plan(ds, selection, distances):
    """The transport plan ``verify --mode erm-graphs`` builds for a medoid
    selection: its objective, and each graph's nearest medoid."""
    owners, _ = nearest_medoid(distances, selection.indices)
    return selection.objective, [ds[j] for j in owners]


def subgraph_plan(ds, subsamples):
    """The transport plan ``verify --mode erm-nodes`` builds for one
    subsample list: the mean distance to the subgraphs, and each subgraph."""
    return mean_tmd(subsamples), [induced_subgraph(ds[s.graph_id], s.kept) for s in subsamples]


def reference_finite_erm_check(ds, labels, hypotheses, *, selection=None,
                               subsamples=None, distances=None, clip=10.0):
    """The finite-ERM check of one selection or one subsample list, with one
    scalar loss and one chain norm per (hypothesis, graph):
    ``abs_clipped_loss`` and ``np.linalg.norm`` in Python loops (the
    original loop)."""
    n = len(ds)
    labels = [float(y) for y in labels]
    m_lip = 1.0
    preds_full = [[reference_gin_forward(h, g) for g in ds] for h in hypotheses]
    full_losses = [
        math.fsum(abs_clipped_loss(p[i], labels[i], clip) for i in range(n)) / n
        for p in preds_full]
    min_loss_full = min(full_losses)
    c = m_lip * max(math.prod(layer_lipschitz(h)) for h in hypotheses)
    if selection is not None:
        idx, full = sorted(selection.indices), distances.full()
        owners = [idx[j] for j in np.argmin(full[:, idx], axis=1)]
        epsilon = medoid_objective(full, idx)
        stand_ins = [[p[o] for o in owners] for p in preds_full]
        stand_in_labels = [labels[o] for o in owners]
    else:
        epsilon = math.fsum(s.tmd_to_full for s in subsamples) / n
        subgraphs = [induced_subgraph(g, s.kept) for g, s in zip(ds, subsamples)]
        stand_ins = [[reference_gin_forward(h, sg) for sg in subgraphs] for h in hypotheses]
        stand_in_labels = labels
    sub_losses = [math.fsum(abs_clipped_loss(q[i], stand_in_labels[i], clip)
                            for i in range(n)) / n for q in stand_ins]
    chain_rhs = [m_lip * math.fsum(float(np.linalg.norm(q[i] - p[i]))
                                   for i in range(n)) / n
                 for q, p in zip(stand_ins, preds_full)]
    excess = max(abs(s - f) - r for s, f, r in zip(sub_losses, full_losses, chain_rhs))
    erm = min(range(len(hypotheses)), key=lambda t: (sub_losses[t], t))
    bound_rhs = 2.0 * c * epsilon
    return ErmReport(full_losses[erm], min_loss_full, bound_rhs, epsilon, excess, erm)


def reference_verify_erm_payload(args, ds, mode):
    """``verify --mode erm-*`` payload from one full pipeline per preset:
    ``pairwise_matrix`` and ``kmedoids``, or
    :func:`reference_subsample_dataset`, then
    :func:`reference_finite_erm_check` (the original loop)."""
    from treesample.cli import _sweep_configs

    labels = [g.label for g in ds]
    hypotheses = [random_gin(args.seed + t, ds.feature_dim, args.hidden, args.depth,
                             eta=args.eta) for t in range(args.hypotheses)]
    reports = []
    for c in _sweep_configs(args):
        if mode == "erm-graphs":
            dm = pairwise_matrix(ds, c)
            sel = kmedoids(dm, args.k)
            report = reference_finite_erm_check(ds, labels, hypotheses,
                                                selection=sel, distances=dm)
        else:
            subs = reference_subsample_dataset(ds, args.frac, c, seed=args.seed)
            report = reference_finite_erm_check(ds, labels, hypotheses,
                                                subsamples=subs)
        reports.append((c.weights.spec_string(), report))
    return {"mode": mode,
            "reports": [dict(json.loads(r.to_json()), preset=p, mode=mode.removeprefix("erm-"))
                        for p, r in reports],
            "chain_ok": all(r.chain_ok for _, r in reports),
            "satisfied_any": any(r.satisfied for _, r in reports),
            "passed_any": any(r.chain_ok and r.satisfied for _, r in reports)}
