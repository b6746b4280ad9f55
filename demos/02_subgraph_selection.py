"""
Shrinking a graph to its most representative nodes
==================================================

Dropping nodes from a graph costs exactly the tree mass those nodes carried:
distance to the original plus tree norm of the remainder is a constant.  So
the k-node induced subgraph closest to the original is simply the one with
the largest tree norm, and the search never has to solve a matching problem.
"""

import numpy as np

from treesample import (TmdConfig, build_candidates, clustered_dataset, const_weights,
                        induced_subgraph, select_subsets, subsample_dataset, tmd, tree_norm)
from treesample.oracles import brute_force_select, tree_norm_decision
from treesample.synth import random_graph

rng = np.random.default_rng(7)
cfg = TmdConfig(depth=3, weights=const_weights(1.0))

g = random_graph(rng, 9, 0.4, feature_dim=2)
full = tree_norm(g, cfg)
print(f"graph: {g.node_count} nodes, {len(g.edges)} edges, tree norm {full:.3f}")

# Conservation: for any node subset, distance + remaining norm = full norm.
subset = (0, 2, 3, 5)
sub = induced_subgraph(g, subset)
d = tmd(g, sub, cfg)
print(f"keep {subset}: distance {d:.3f} + norm {tree_norm(sub, cfg):.3f}"
      f" = {d + tree_norm(sub, cfg):.3f}")

# The identity transport plan is optimal for deletions, so the package reports
# a subgraph's distance as that norm difference and skips the matching solver.
kept, = select_subsets(g, {subset: "keep"}, [cfg])
print("norm-difference shortcut:", f"{kept.tmd_to_full:.3f}")

# Exact best 4-node subgraph by enumeration.
best = brute_force_select(g, 4, cfg)
print(f"best 4 nodes {best.kept}: distance {best.tmd_to_full:.3f}")

# Heuristic candidates: BFS balls around each node, a random walk, and the
# densest core.  Cheap, and the tree-norm ranking picks the best of them;
# the exhaustive search above is only there to show how far off they land.
cands = build_candidates(g, 4, seed=0)
pick, = select_subsets(g, cands, [cfg])
print(f"heuristic pick {pick.kept} via {pick.provenance}: distance {pick.tmd_to_full:.3f}")

# Decision form: does any 4-node subgraph retain at least 60% of the mass?
print("some 4-node subgraph has norm >= 0.6*full:",
      tree_norm_decision(g, 4, 0.6 * full, cfg))

# Across a whole dataset, keep roughly half the nodes of every graph.
ds = clustered_dataset(12, 3, seed=1)
subs = subsample_dataset(ds, 0.5, cfg, seed=0)
mean_cost = float(np.mean([s.tmd_to_full for s in subs]))
mean_kept = float(np.mean([len(s.kept) / h.node_count
                           for s, h in zip(subs, ds)]))
print(f"dataset of {len(ds)}: kept {mean_kept:.0%} of nodes on average,"
      f" mean distance {mean_cost:.3f}")
