"""
Weighted medoid coresets over a graph dataset
=============================================

A handful of medoid graphs, each weighted by the size of its cluster, can
stand in for a whole dataset: training loss on the weighted medoids tracks
the loss on everything, with error controlled by the mean distance to the
nearest medoid.  This demo builds the distance matrix (cached), selects
medoids, and checks the resulting guarantee for a bank of random networks.
"""

import tempfile
from pathlib import Path

from treesample import (TmdConfig, cluster_sizes, clustered_dataset,
                        const_weights, finite_erm_check, kmedoids,
                        load_or_compute, nearest_medoid, pairwise_matrix,
                        random_gin)

ds = clustered_dataset(n_graphs=40, families=5, seed=0)
cfg = TmdConfig(depth=3, weights=const_weights(1.0))

# Pairwise distances are the expensive part, so they go through a binary
# cache file whose header holds the whole key: dataset fingerprint, depth,
# weight schedule, feature norm, and a checksum of the values.
with tempfile.TemporaryDirectory() as workdir:
    cache = Path(workdir) / "clustered.tmdc"
    dm, recomputed = load_or_compute(cache, ds, "tmd", cfg,
                                     lambda: pairwise_matrix(ds, cfg))
    print(f"distance matrix {dm.n}x{dm.n}, recomputed={recomputed}")
    dm, recomputed = load_or_compute(cache, ds, "tmd", cfg,
                                     lambda: pairwise_matrix(ds, cfg))
    print(f"second call hits the cache,   recomputed={recomputed}")
    print("cache directory holds", sorted(p.name for p in Path(workdir).iterdir()))

# Five medoids for five planted families.  The trace shows the greedy
# objective never increasing while the swap search runs.
trace = []
sel = kmedoids(dm, k=5, trace=trace)
print(f"medoids {sel.indices}, weights {sel.tau}, objective {sel.objective:.4f}")
print("objective trace:", [round(t, 4) for t in trace])
print("cluster sizes:  ", cluster_sizes(dm, sel.indices))

# Every graph's nearest medoid comes from its own family, so medoid labels
# are trustworthy stand-ins for member labels.
owners = nearest_medoid(dm, sel.indices)
purity = sum(ds.graphs[int(o)].label == g.label
             for o, g in zip(owners, ds.graphs)) / len(ds)
print(f"cluster label purity: {purity:.0%}")

# The guarantee in action: minimizing the weighted-medoid loss over twenty
# random networks lands within 2*eps of the best full-data loss, and every
# network satisfies the transport-plan chain inequality along the way.
hyps = [random_gin(seed, feature_dim=3, hidden=8, depth=3, eta=1.0)
        for seed in range(20)]
labels = [float(g.label) for g in ds.graphs]
report = finite_erm_check(ds, labels, hyps, selection=sel, distances=dm)
print(f"picked hypothesis {report.erm_index}:"
      f" full loss {report.loss_full_of_erm:.4f}"
      f" vs best possible {report.min_loss_full:.4f}"
      f" (allowed slack {report.bound_rhs - report.min_loss_full:.4f})")
print(f"bound satisfied: {report.satisfied}, chain ok: {report.chain_ok}")
