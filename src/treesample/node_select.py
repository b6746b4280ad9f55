"""Node subset selection inside a single graph.

Finding the k-node induced subgraph closest to the parent graph is the same
problem as finding the k-node subgraph with the largest tree norm, so the
selector evaluates cheap tree norms over a candidate pool, all candidates in
one masked pass over the parent's edges, instead of running any matching.
Candidates come from three heuristics: per-node BFS balls, a restarting
random walk, and a k-core peel.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .config import TmdConfig
from .errors import (ConfigError, _require_choice, _require_int, _require_real,
                     _seeded_rng, exact_sums, require_finite)
from .graphs import Dataset, Graph
from .treenorm import subset_tree_norm_sweep

_HEURISTICS = ("bfs", "rw", "kcore")
# roots per shortest_path call in _k_bfs_candidates, which bounds its memory
_BFS_BLOCK = 512


@dataclass
class NodeSubsample:
    """Result of subsampling one graph: kept nodes and the cost of the cut."""

    graph_id: int
    kept: tuple[int, ...]
    tree_norm_full: float
    tree_norm_sub: float
    provenance: str
    tmd_to_full = property(lambda self: self.tree_norm_full - self.tree_norm_sub)

    def to_json(self) -> str:
        return json.dumps({
            "id": self.graph_id, "kept": list(self.kept),
            "tree_norm_full": self.tree_norm_full,
            "tree_norm_sub": self.tree_norm_sub,
            "tmd": self.tmd_to_full, "provenance": self.provenance,
        }, sort_keys=True)


def mean_tmd(subs) -> float:
    """Exact mean distance from each graph to its subgraph; 0.0 for none."""
    what = "the mean distance to the subgraphs"
    values = [s.tmd_to_full for s in subs]
    total, = require_finite(exact_sums([values], what), what)
    return float(total) / max(1, len(values))


def _k_bfs_candidates(g: Graph, k: int) -> dict[tuple[int, ...], str]:
    """One BFS ball per node: the deepest ball that still holds <= k nodes.

    Returns a dict from each ball, a sorted tuple of Python ints, to the tag
    of the first root that produced it, so identical balls from different
    roots are kept once.  Balls never cross connected components.  Hop
    counts come from ``shortest_path`` over the graph's CSR, for at most 512
    roots at a time, so the hop table and its partitioned copy add at most
    16 * 512 * n bytes.
    """
    cands: dict[tuple[int, ...], str] = {}
    n = g.node_count
    indptr, indices = g.csr()
    adj = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    for lo in range(0, n, _BFS_BLOCK):
        roots = np.arange(lo, min(lo + _BFS_BLOCK, n))
        hops = shortest_path(adj, unweighted=True, indices=roots)
        # the deepest ball within k nodes holds exactly the nodes closer
        # than the (k + 1)-th nearest (inf when k or fewer are reachable)
        limit = np.partition(hops, k, axis=1)[:, k:k + 1] if k < n else np.inf
        inside = hops < limit
        cols = np.nonzero(inside)[1].tolist()
        ends = np.cumsum(inside.sum(axis=1)).tolist()
        for v, a, b in zip(roots.tolist(), [0, *ends], ends):
            cands.setdefault(tuple(cols[a:b]), f"bfs:{v}")
    return cands


def _rw_candidate(g: Graph, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Distinct nodes visited by a restarting random walk drawn from ``rng``.

    Starts at the highest-degree node (ties: smallest index), restarts with
    probability 0.15, and stops after ``min(k, n)`` distinct nodes or
    ``50 * k`` steps; any shortfall is padded with the smallest unvisited
    indices.
    """
    n = g.node_count
    if n == 0:
        return ()
    target = min(k, n)
    start = int(np.argmax(g.degrees()))
    indptr, indices = g.csr()
    visited = {start}
    cur = start
    steps = 0
    while len(visited) < target and steps < 50 * k:
        steps += 1
        nbrs = indices[indptr[cur]:indptr[cur + 1]]
        if rng.random() < 0.15 or nbrs.size == 0:
            cur = start
        else:
            cur = int(nbrs[rng.integers(nbrs.size)])
        visited.add(cur)
    for u in range(n):
        if len(visited) >= target:
            break
        visited.add(u)
    return tuple(sorted(visited))


def _core_numbers(g: Graph) -> np.ndarray:
    """Core numbers by the O(n + m) bucket-queue peel of Batagelj and Zaversnik
    (2003): ``vert`` sorts nodes by degree, bucket d starts at ``start[d]``."""
    indptr, indices = g.csr()
    deg = np.diff(indptr)
    vert = np.argsort(deg, kind="stable")
    start = np.searchsorted(deg[vert], np.arange(deg.max(initial=0) + 1)).tolist()
    pos = np.argsort(vert).tolist()
    vert, deg, ptr, nbrs = vert.tolist(), deg.tolist(), indptr.tolist(), indices.tolist()
    for v in vert:  # vert changes only past the current position
        for u in nbrs[ptr[v]:ptr[v + 1]]:
            du = deg[u]
            if du > deg[v]:
                # swap u with the first node w of its bucket, then shrink it
                pu, pw = pos[u], start[du]
                w = vert[pw]
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
                start[du] += 1
                deg[u] = du - 1
    return np.array(deg, dtype=np.int64)


def _kcore_candidate(g: Graph, k: int) -> tuple[int, ...]:
    """Top ``min(k, n)`` nodes by (core number desc, degree desc, index asc)."""
    n = g.node_count
    core = _core_numbers(g)
    deg = g.degrees()
    order = sorted(range(n), key=lambda v: (-int(core[v]), -int(deg[v]), v))
    return tuple(sorted(order[:min(k, n)]))


def select_subsets(g: Graph, candidates: dict, cfgs,
                   graph_id: int = 0) -> list[NodeSubsample]:
    """Under each config in ``cfgs``, pick the candidate whose induced
    subgraph has the largest tree norm, so the least distance to ``g``;
    exact ties go to the lexicographically smallest sorted subset.
    ``candidates`` maps sorted node tuples to tags, as from
    :func:`build_candidates`.  One
    :func:`~treesample.treenorm.subset_tree_norm_sweep` scores ``g`` itself
    and every candidate under every config, building no subgraph."""
    graph_id = _require_int(graph_id, "graph_id", 0, None)
    if not candidates:
        raise ConfigError("candidate set is empty")
    subsets, tags = list(candidates), list(candidates.values())
    norms = subset_tree_norm_sweep(g, [range(g.node_count), *subsets], cfgs)
    out = []
    for full, vals in zip(norms[:, 0].tolist(), norms[:, 1:]):
        best = vals.max()
        i = min(np.flatnonzero(vals == best), key=lambda j: subsets[j])
        out.append(NodeSubsample(graph_id, subsets[i], full, float(vals[i]), tags[i]))
    return out


def _check_heuristics(heuristics) -> tuple[str, ...]:
    """The checked names, as a tuple: an iterator could be read only once."""
    # a str would be read letter by letter
    if isinstance(heuristics, str) or not isinstance(heuristics, Iterable):
        raise ConfigError(f"heuristics must be a collection of names, got {heuristics!r}")
    names = tuple(_require_choice(name, "heuristic", _HEURISTICS) for name in heuristics)
    if not names:
        raise ConfigError("at least one heuristic must be enabled")
    return names


def build_candidates(g: Graph, k: int, seed: int,
                     heuristics=_HEURISTICS) -> dict[tuple[int, ...], str]:
    """Union of candidate subsets from the enabled heuristics, as a dict from
    each sorted node tuple to the tag of the first heuristic that produced it.
    ``k``, ``seed`` (an integer >= 0, which seeds the random walk) and
    ``heuristics`` are checked here, for all three heuristics."""
    k = _require_int(k, "k", 1, None)
    rng = _seeded_rng(seed)
    heuristics = _check_heuristics(heuristics)
    cands = _k_bfs_candidates(g, k) if "bfs" in heuristics else {}
    if "rw" in heuristics:
        cands.setdefault(_rw_candidate(g, k, rng), "rw")
    if "kcore" in heuristics:
        cands.setdefault(_kcore_candidate(g, k), "kcore")
    return cands


def subsample_dataset(ds: Dataset, frac: float, cfg: TmdConfig,
                      heuristics=_HEURISTICS,
                      seed: int = 0) -> list[NodeSubsample]:
    """Subsample every graph to roughly ``frac`` of its nodes.

    Per graph, ``k = max(1, round(frac * n))`` (half-up rounding, capped at
    n).  ``seed`` is an integer >= 0; graph ``i`` walks with seed
    ``seed + i``, so its random-walk candidate follows its position in the
    dataset.
    """
    return subsample_sweep(ds, frac, [cfg], heuristics, seed)[0]


def subsample_sweep(ds: Dataset, frac: float, cfgs,
                    heuristics=_HEURISTICS,
                    seed: int = 0) -> list[list[NodeSubsample]]:
    """:func:`subsample_dataset` under each config in ``cfgs``, one list per
    config.  The candidates do not depend on the config, so each graph's
    are built and scored once, by one :func:`select_subsets` call."""
    frac = _require_real(frac, "frac")
    if not 0.0 < frac <= 1.0:
        raise ConfigError(f"frac must be in (0, 1], got {frac}")
    seed = _require_int(seed, "seed", 0, None)
    heuristics = _check_heuristics(heuristics)
    out = [[] for _ in cfgs]
    for i, g in enumerate(ds):
        n = g.node_count
        if n == 0:
            for subs in out:
                subs.append(NodeSubsample(i, (), 0.0, 0.0, "empty"))
            continue
        k = min(n, max(1, int(math.floor(frac * n + 0.5))))
        cands = build_candidates(g, k, seed + i, heuristics)
        for subs, pick in zip(out, select_subsets(g, cands, cfgs, i)):
            subs.append(pick)
    return out
