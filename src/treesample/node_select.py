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
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .config import TmdConfig
from .errors import ConfigError
from .graphs import Dataset, Graph
from .treenorm import subset_tree_norms, tree_norm

# roots per shortest_path call in k_bfs_candidates, which bounds its memory
_BFS_BLOCK = 512


@dataclass
class CandidateSet:
    """Deduplicated candidate subsets with the heuristic that produced each."""

    subsets: list[tuple[int, ...]]
    tags: list[str]

    def add(self, subset, tag: str) -> None:
        canon = tuple(sorted(int(v) for v in subset))
        if canon not in self._seen:
            self._seen.add(canon)
            self.subsets.append(canon)
            self.tags.append(tag)

    def __post_init__(self):
        self._seen = set(self.subsets)

    def __len__(self):
        return len(self.subsets)


def new_candidate_set() -> CandidateSet:
    return CandidateSet([], [])


@dataclass
class NodeSubsample:
    """Result of subsampling one graph: kept nodes and the cost of the cut."""

    graph_id: int
    kept: tuple[int, ...]
    tree_norm_full: float
    tree_norm_sub: float
    tmd_to_full: float
    provenance: str

    def to_json(self) -> str:
        return json.dumps({
            "id": self.graph_id, "kept": list(self.kept),
            "tree_norm_full": self.tree_norm_full,
            "tree_norm_sub": self.tree_norm_sub,
            "tmd": self.tmd_to_full, "provenance": self.provenance,
        }, sort_keys=True)


def save_subsamples(subs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in subs:
            fh.write(s.to_json() + "\n")


def load_subsamples(path) -> list[NodeSubsample]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            out.append(NodeSubsample(rec["id"], tuple(rec["kept"]),
                                     rec["tree_norm_full"], rec["tree_norm_sub"],
                                     rec["tmd"], rec["provenance"]))
    return out


def k_bfs_candidates(g: Graph, k: int) -> CandidateSet:
    """One BFS ball per node: the deepest ball that still holds <= k nodes.

    Balls never cross connected components.  Identical balls from different
    roots are deduplicated, keeping the first root's tag.  Hop counts come
    from ``shortest_path`` over the graph's CSR, for at most 512 roots at a
    time, so the hop table adds at most 8 * 512 * n bytes.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    cands = new_candidate_set()
    n = g.node_count
    indptr, indices = g.csr()
    adj = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    for lo in range(0, n, _BFS_BLOCK):
        roots = np.arange(lo, min(lo + _BFS_BLOCK, n))
        hops = shortest_path(adj, unweighted=True, indices=roots)
        for v, row in zip(roots.tolist(), hops):
            # the deepest ball within k nodes holds exactly the nodes closer
            # than the (k + 1)-th nearest (inf when k or fewer are reachable)
            limit = np.partition(row, k)[k] if k < n else np.inf
            cands.add(np.flatnonzero(row < limit).tolist(), f"bfs:{v}")
    return cands


def rw_candidate(g: Graph, k: int, seed: int) -> tuple[int, ...]:
    """Distinct nodes visited by a restarting random walk.

    Starts at the highest-degree node (ties: smallest index), restarts with
    probability 0.15, and stops after ``min(k, n)`` distinct nodes or
    ``50 * k`` steps; any shortfall is padded with the smallest unvisited
    indices.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n = g.node_count
    if n == 0:
        return ()
    target = min(k, n)
    start = int(np.argmax(g.degrees()))
    rng = np.random.default_rng(seed)
    visited = {start}
    cur = start
    steps = 0
    while len(visited) < target and steps < 50 * k:
        steps += 1
        nbrs = g.neighbors(cur)
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


def core_numbers(g: Graph) -> np.ndarray:
    """Core number of each node via min-degree peeling."""
    n = g.node_count
    core = np.zeros(n, dtype=np.int64)
    degc = g.degrees().astype(np.int64)
    alive = np.ones(n, dtype=bool)
    peeled = 0
    level = 0
    while peeled < n:
        candidates = np.flatnonzero(alive)
        v = int(candidates[np.argmin(degc[candidates])])
        level = max(level, int(degc[v]))
        core[v] = level
        alive[v] = False
        peeled += 1
        for u in g.neighbors(v):
            if alive[u]:
                degc[u] -= 1
    return core


def kcore_candidate(g: Graph, k: int) -> tuple[int, ...]:
    """Top ``min(k, n)`` nodes by (core number desc, degree desc, index asc)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n = g.node_count
    if n == 0:
        return ()
    core = core_numbers(g)
    deg = g.degrees()
    order = sorted(range(n), key=lambda v: (-int(core[v]), -int(deg[v]), v))
    return tuple(sorted(order[:min(k, n)]))


def select_subset(g: Graph, candidates: CandidateSet, cfg: TmdConfig,
                  graph_id: int = 0) -> NodeSubsample:
    """Pick the candidate whose induced subgraph has the largest tree norm.

    Maximizing the subgraph tree norm minimizes the distance to the parent
    graph.  Exact ties resolve to the lexicographically smallest sorted
    subset.  :func:`~treesample.treenorm.subset_tree_norms` scores all
    candidates together in masked passes over the parent's edges (chunks of
    at most 65,536 candidate-(nodes + edges) entries, < 3 MB each), so no
    subgraph is built until a caller uses the winner's ``kept`` nodes.
    """
    if len(candidates) == 0:
        raise ConfigError("candidate set is empty")
    full = tree_norm(g, cfg)
    vals = subset_tree_norms(g, candidates.subsets, cfg)
    best = vals.max()
    i = min(np.flatnonzero(vals == best), key=lambda j: candidates.subsets[j])
    val = float(vals[i])
    return NodeSubsample(graph_id, candidates.subsets[i], full, val, full - val,
                         candidates.tags[i])


def build_candidates(g: Graph, k: int, seed: int,
                     heuristics=("bfs", "rw", "kcore")) -> CandidateSet:
    """Union of candidate subsets from the enabled heuristics."""
    known = {"bfs", "rw", "kcore"}
    bad = set(heuristics) - known
    if bad:
        raise ConfigError(f"unknown heuristics {sorted(bad)}; choose from {sorted(known)}")
    if not heuristics:
        raise ConfigError("at least one heuristic must be enabled")
    cands = new_candidate_set()
    if "bfs" in heuristics:
        bfs = k_bfs_candidates(g, k)
        for subset, tag in zip(bfs.subsets, bfs.tags):
            cands.add(subset, tag)
    if "rw" in heuristics:
        cands.add(rw_candidate(g, k, seed), "rw")
    if "kcore" in heuristics:
        cands.add(kcore_candidate(g, k), "kcore")
    return cands


def subsample_dataset(ds: Dataset, frac: float, cfg: TmdConfig,
                      heuristics=("bfs", "rw", "kcore"),
                      seed: int = 0) -> list[NodeSubsample]:
    """Subsample every graph to roughly ``frac`` of its nodes.

    Per graph, ``k = max(1, round(frac * n))`` (half-up rounding, capped at
    n); the walk seed is derived per graph so results are independent of
    dataset order.
    """
    if not (0.0 < frac <= 1.0):
        raise ConfigError(f"frac must be in (0, 1], got {frac}")
    out = []
    for i, g in enumerate(ds):
        n = g.node_count
        if n == 0:
            out.append(NodeSubsample(i, (), 0.0, 0.0, 0.0, "empty"))
            continue
        k = min(n, max(1, int(math.floor(frac * n + 0.5))))
        cands = build_candidates(g, k, seed + i, heuristics)
        out.append(select_subset(g, cands, cfg, graph_id=i))
    return out
