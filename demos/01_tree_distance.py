"""
Distances between attributed graphs
===================================

Two graphs are compared by unrolling each node into its message-passing
computation tree and solving a sequence of small matching problems between
the tree multisets.  Missing partners are matched against blank trees, so
graphs of different sizes compare directly.
"""

import numpy as np

from treesample import TmdConfig, Graph, const_weights, parse_weights, tmd, tree_norm
from treesample.oracles import computation_tree, tmd_naive

# A triangle and a 2-path, each carrying 1-d unit features.  These are the
# classic smallest pair where structure, not features, drives the distance.
triangle = Graph(3, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1)))
path = Graph(2, [(0, 1)], np.ones((2, 1)))

cfg = TmdConfig(depth=2, weights=const_weights(1.0))
print("triangle vs 2-path, depth 2:", tmd(triangle, path, cfg))

# The exhaustive reference solver unrolls every tree explicitly and matches
# them pairwise.  It only scales to toy sizes, but it must agree exactly.
print("reference solver agrees:    ", tmd_naive(triangle, path, cfg))

# A computation tree records what a message-passing layer can see from one
# root.  Depth 2 from node 0 of the triangle: the root plus its neighbours.
tree = computation_tree(triangle, 0, 2)
print("depth-2 tree at node 0: nodes", tree.node_count, "parents", tree.parents)

# Deeper unrollings revisit nodes; the tree grows even though the graph
# does not.
tree3 = computation_tree(triangle, 0, 3)
print("depth-3 tree at node 0: nodes", tree3.node_count)

# Level weights discount deep tree levels.  A geometric schedule w(d) = 0.5
# halves the contribution of each extra level; the distance drops accordingly.
half = TmdConfig(depth=3, weights=parse_weights("const:0.5"))
unit = TmdConfig(depth=3, weights=parse_weights("const:1.0"))
print("depth 3, w=1.0:", tmd(triangle, path, unit))
print("depth 3, w=0.5:", tmd(triangle, path, half))

# Distance to the empty graph is the graph's tree norm: total tree mass.
from treesample import empty_graph

print("tmd(triangle, empty):", tmd(triangle, empty_graph(1), unit))
print("tree_norm(triangle): ", tree_norm(triangle, unit))
