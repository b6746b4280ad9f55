"""
Network output drift is bounded by graph distance
=================================================

For message-passing networks whose update reads ``act((z + eta * sum) W + b)``
with 1-Lipschitz activations, the readout gap between two graphs is at most
the tree distance between them times the product of layer Lipschitz
constants, provided the level weights keep up with eta.  This demo measures
that ratio over random graph pairs, shows it degrade as the level weights
fall behind, and finishes with the pair of graphs that label refinement
cannot tell apart although the network can.
"""

import math

import numpy as np

from treesample import (TmdConfig, clustered_dataset, gin_forward, identity_gin,
                        layer_lipschitz, make_dataset, parse_weights, random_gin,
                        random_pairs, stability_sweep,
                        wl_counterexample_pair, wl_pseudometric_matrix)

# Two message-passing layers plus a sum readout; depth-3 trees see exactly
# as far as this network does.
model = random_gin(seed=0, feature_dim=3, hidden=8, depth=3, eta=1.0)
norms = layer_lipschitz(model)
print("layer Lipschitz constants:", [round(c, 3) for c in norms],
      "product", round(math.prod(norms), 3))

# Pairs are index pairs into the dataset, as the distance kernel takes them.
ds = clustered_dataset(40, 5, seed=0)
pairs = random_pairs(ds, count=100, seed=0)

# Sweep the level weight from half of eta to four times eta in one call,
# which forwards each graph once.  Once the weight matches eta the measured
# ratio stays at or below one.
lams = (0.5, 1.0, 2.0, 4.0)
cfgs = [TmdConfig(depth=3, weights=parse_weights(f"const:{lam}")) for lam in lams]
for lam, rep in zip(lams, stability_sweep(model, ds.graphs, pairs, cfgs)):
    flag = "bound holds" if rep.violations == 0 else f"{rep.violations} violations"
    print(f"w = {lam:3.1f} * eta: max ratio {rep.max_ratio:8.4f}  ({flag})")

# The same check across several random networks at the matched weight.
cfg = TmdConfig(depth=3, weights=parse_weights("const:1.0"))
worst = max(stability_sweep(random_gin(s, 3, 8, 3, eta=1.0), ds.graphs, pairs,
                            [cfg])[0].max_ratio for s in range(5))
print("worst max ratio over 5 random networks:", round(worst, 4))

# Refinement distance treats features as opaque labels, so scaling every
# feature tenfold is invisible to it.  The network output moves; the tree
# distance moves with it.  This is why the metric tracks feature geometry.
g1, g2 = wl_counterexample_pair()
probe = identity_gin()
gap = float(np.linalg.norm(gin_forward(probe, g1) - gin_forward(probe, g2)))
wl = wl_pseudometric_matrix(make_dataset([g1, g2]), iterations=3)
print("label-refinement distance:", wl.value(0, 1))
print("identity network readout gap:", gap)
