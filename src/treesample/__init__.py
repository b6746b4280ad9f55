"""Graph-dataset subsampling with tree mover's distance guarantees.

The package computes a matching-based distance between attributed graphs
(built from their message-passing computation trees), uses it to pick
weighted medoid graphs out of a dataset, shrinks individual graphs to the
node subsets that best preserve them, and empirically checks the stability
and subsample-training bounds that make those selections trustworthy.
"""

from .config import TmdConfig, WeightFn, const_weights, parse_weights
from .errors import (CacheMismatchError, ConfigError, DatasetError,
                     NumericalOverflowError, ScaleLimitError)
from .graphs import (Dataset, Graph, dataset_fingerprint, empty_graph,
                     induced_subgraph, load_jsonl, load_tu, make_dataset,
                     save_jsonl, validate)
from .matching import matching_value
from .tmd import (DistanceMatrix, pairwise_matrix, tmd, tmd_cost_matrix,
                  tmd_subgraph)
from .treenorm import (TreeNormReport, feature_norms, subset_tree_norms,
                       tree_norm, tree_norm_report)
from .cache import load_or_compute, read_matrix, write_matrix
from .graph_select import (Selection, cluster_sizes, feature_distance_matrix,
                           kmedoids, load_selection, medoids_objective,
                           nearest_medoid, random_selection, save_selection,
                           wl_distance, wl_histograms, wl_pseudometric_matrix)
from .node_select import (CandidateSet, NodeSubsample, build_candidates,
                          core_numbers, k_bfs_candidates, kcore_candidate,
                          load_subsamples, new_candidate_set, rw_candidate,
                          save_subsamples, select_subset, subsample_dataset)
from .oracles import (MatchingResult, RootedTree, blank_tree,
                      brute_force_matching, brute_force_medoids,
                      brute_force_select, computation_tree, min_cost_matching,
                      tmd_naive, tree_blank_distance, tree_distance,
                      tree_norm_batch, tree_norm_decision, tree_norm_naive)
from .gnn import (ErmReport, GinLayer, GinModel, LipschitzProfile,
                  StabilityReport, abs_clipped_loss, finite_erm_check,
                  gin_forward, identity_gin, layer_lipschitz, node_embeddings,
                  random_gin, stability_report)
from .synth import (clustered_dataset, random_graph, random_pairs,
                    random_regular_graph, synthetic_dataset,
                    wl_counterexample_pair)

__version__ = "0.1.0"
