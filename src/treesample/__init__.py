"""Graph-dataset subsampling with tree mover's distance guarantees.

The package computes a matching-based distance between attributed graphs
(built from their message-passing computation trees), uses it to pick
weighted medoid graphs out of a dataset, shrinks individual graphs to the
node subsets that best preserve them, and empirically checks the stability
and subsample-training bounds that make those selections trustworthy.
"""

from .config import TmdConfig, WeightFn, const_weights, parse_weights
from .errors import (CacheMismatchError, ConfigError, DatasetError,
                     NumericalOverflowError)
from .graphs import (Dataset, Graph, dataset_fingerprint, empty_graph,
                     induced_subgraph, load_jsonl, load_tu, make_dataset,
                     save_jsonl)
from .tmd import DistanceMatrix, pairwise_matrix, tmd
from .treenorm import feature_norms, subset_tree_norm_sweep, tree_norm
from .cache import load_or_compute, read_matrix, write_matrix
from .graph_select import (Selection, feature_distance_matrix, kmedoids,
                           nearest_medoid, random_selection, wl_pseudometric_matrix)
from .node_select import (NodeSubsample, build_candidates, select_subsets,
                          subsample_dataset, subsample_sweep)
# perfbench/workloads.py imports it from here; ROADMAP item 21 drops it after item 11
from .oracles import tmd_naive
from .gnn import (ErmReport, GinLayer, GinModel, StabilityReport,
                  finite_erm_sweep, gin_forward, identity_gin, layer_lipschitz,
                  random_gin, stability_sweep)
from .synth import (clustered_dataset, random_graph, random_pairs,
                    synthetic_dataset, wl_counterexample_pair)

__version__ = "0.1.0"
