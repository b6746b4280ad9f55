import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from treesample import (ConfigError, DatasetError, Graph, NumericalOverflowError, TmdConfig,
                        const_weights, empty_graph, induced_subgraph, make_dataset,
                        pairwise_matrix, select_subsets, tmd, tree_norm)
from treesample.oracles import (ScaleLimitError, blank_tree, brute_force_matching,
                                computation_tree, tmd_naive, tree_blank_distance,
                                tree_distance)
from treesample.synth import random_graph as synth_random_graph
from treesample.tmd import (_ENUM_MAX_Q, _cross_distances,
                            _solve_injective, _solve_lsap)

from helpers import (TMD_MODULE, cfg, random_graph, random_table_cfg,
                     reference_solve_enumerated, reference_solve_lsap, reference_tmd)

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1)))
P2 = Graph(2, [(0, 1)], np.ones((2, 1)))


def test_triangle_vs_path_worked_example():
    assert tmd(K3, P2, cfg(2)) == 5.0
    assert tmd(P2, K3, cfg(2)) == 5.0


def test_distance_to_empty_is_tree_norm():
    assert tmd(P2, empty_graph(1), cfg(2)) == 4.0
    assert tmd(empty_graph(1), P2, cfg(2)) == tree_norm(P2, cfg(2))
    assert tmd(empty_graph(1), empty_graph(1), cfg(3)) == 0.0


def test_graphs_of_different_widths_are_refused_in_either_order():
    # the pair runs in content-key order, the 1-node graph first, so the
    # message reads the same both ways
    narrow = Graph(2, [(0, 1)], [[1.0], [2.0]])
    wide = Graph(1, [], [[1.0, 2.0]])
    for ga, gb in ((narrow, wide), (wide, narrow)):
        with pytest.raises(DatasetError, match=r"^feature dimensions differ: 2 vs 1$"):
            tmd(ga, gb, cfg(2))
    # a graph with no nodes has no feature to compare, whatever its width
    for ga, gb in ((narrow, empty_graph(3)), (empty_graph(3), narrow)):
        assert tmd(ga, gb, cfg(2)) == tree_norm(narrow, cfg(2))


def test_self_distance_is_exactly_zero():
    assert tmd(K3, K3, cfg(2)) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, n_max=6)
        assert tmd(g, g, cfg(3)) == 0.0


def test_matches_naive_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        c = random_table_cfg(rng, int(rng.integers(1, 4)))
        a, b = random_graph(rng, n_max=6), random_graph(rng, n_max=6)
        fast, slow = tmd(a, b, c), tmd_naive(a, b, c)
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)


def _tied_graph(rng, kind):
    """A G(n, p) draw with all-ones features (what ``load_tu`` gives a
    dataset without attributes) or integer features in {0, 1, 2}."""
    g = random_graph(rng, n_max=12, p=float(rng.uniform(0.1, 0.9)))
    n = g.node_count
    feats = (np.ones((n, 1)) if kind == "ones"
             else rng.integers(0, 3, (n, 2)).astype(float))
    return Graph(n, g.edges, feats)


def test_symmetry_is_bit_exact():
    rng = np.random.default_rng(17)
    for _ in range(25):
        c = random_table_cfg(rng, int(rng.integers(1, 4)))
        a, b = random_graph(rng, n_max=7), random_graph(rng, n_max=7)
        assert tmd(a, b, c) == tmd(b, a, c)
    # tied features, where the solver's pick among near-tie assignments
    # depends on the argument order: unless tmd fixes that order, 19 of these
    # 800 pairs differ in the last bit
    for kind, seed in (("ones", 71), ("ints", 72)):
        rng = np.random.default_rng(seed)
        for i in range(400):
            c = random_table_cfg(rng, int(rng.integers(1, 5)), ("l1", "l2")[i % 2])
            a, b = _tied_graph(rng, kind), _tied_graph(rng, kind)
            assert tmd(a, b, c) == tmd(b, a, c), (kind, i)


def test_triangle_inequality_with_slack():
    rng = np.random.default_rng(19)
    for _ in range(20):
        c = cfg(int(rng.integers(1, 4)))
        a, b, z = (random_graph(rng, n_max=6) for _ in range(3))
        dab, dbz, daz = tmd(a, b, c), tmd(b, z, c), tmd(a, z, c)
        assert daz <= dab + dbz + 1e-9


def test_relabeling_leaves_distance_unchanged():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_graph(rng, n_max=7)
        perm = rng.permutation(a.node_count)
        inv = np.argsort(perm)
        relabeled = Graph(a.node_count, [(int(inv[u]), int(inv[v])) for u, v in a.edges],
                          a.features[perm])
        b = random_graph(rng, n_max=7)
        c = cfg(3)
        assert tmd(a, b, c) == tmd(relabeled, b, c)


def test_feature_dim_mismatch_raises():
    a = Graph(1, [], np.ones((1, 2)))
    b = Graph(1, [], np.ones((1, 3)))
    with pytest.raises(DatasetError):
        tmd(a, b, cfg(2))


def test_naive_scale_limits():
    big = Graph(13, [], np.ones((13, 1)))
    with pytest.raises(ScaleLimitError):
        tmd_naive(big, P2, cfg(2))
    with pytest.raises(ScaleLimitError):
        tmd_naive(K3, P2, cfg(5))


def test_tree_distance_worked_examples():
    c = cfg(2)
    ta = computation_tree(K3, 0, 2)
    tb = computation_tree(P2, 0, 2)
    # roots match (unit features), children: two unit leaves vs one
    assert tree_distance(ta, tb, c) == 1.0
    assert tree_distance(ta, ta, c) == 0.0
    assert tree_blank_distance(tb, c) == 2.0
    assert tree_blank_distance(blank_tree(1), c) == 0.0


def test_tree_distance_depth_guard():
    deep = computation_tree(K3, 0, 3)
    with pytest.raises(ConfigError):
        tree_distance(deep, blank_tree(1), cfg(2))
    with pytest.raises(ConfigError):
        tree_blank_distance(deep, cfg(2))


def _to_subgraph(g, nodes, c):
    """The distance from ``g`` to its subgraph on ``nodes`` that the
    package reports: a tree-norm difference, as the identity plan is optimal."""
    return select_subsets(g, {tuple(nodes): "t"}, [c])[0].tmd_to_full


def test_subgraph_distance_worked_examples():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)], np.array([[3.0], [1.0], [1.0]]))
    c = cfg(2)
    # ||G|| = 15, ||G[{0,1}]|| = (3 + 1) + (1 + 3) = 8
    assert _to_subgraph(g, [0, 1], c) == 7.0
    assert _to_subgraph(g, [0, 1, 2], c) == 0.0
    p = Graph(2, [(0, 1)], np.ones((2, 1)))
    assert _to_subgraph(p, [1], c) == 3.0


def test_subgraph_shortcut_equals_full_solver():
    rng = np.random.default_rng(29)
    for _ in range(15):
        g = random_graph(rng, n_max=7, n_min=2)
        c = random_table_cfg(rng, int(rng.integers(1, 4)))
        k = int(rng.integers(1, g.node_count + 1))
        nodes = sorted(rng.choice(g.node_count, size=k, replace=False).tolist())
        direct = tmd(g, induced_subgraph(g, nodes), c)
        shortcut = _to_subgraph(g, nodes, c)
        assert math.isclose(direct, shortcut, rel_tol=1e-9, abs_tol=1e-12)


def test_nested_deletion_is_additive():
    rng = np.random.default_rng(31)
    for _ in range(15):
        g = random_graph(rng, n_max=8, n_min=3)
        c = cfg(3)
        n = g.node_count
        s = sorted(rng.choice(n, size=n - 1, replace=False).tolist())
        t = sorted(rng.choice(s, size=max(1, len(s) // 2), replace=False).tolist())
        rest = sorted(set(s) - set(t))
        whole = tmd(g, induced_subgraph(g, rest), c)
        step1 = tmd(g, induced_subgraph(g, s), c)
        step2 = tmd(induced_subgraph(g, s), induced_subgraph(g, rest), c)
        assert math.isclose(whole, step1 + step2, rel_tol=1e-9, abs_tol=1e-9)


def test_scaling_weights_up_never_shrinks_distance():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, b = random_graph(rng, n_max=6), random_graph(rng, n_max=6)
        base = tmd(a, b, cfg(3, w=1.0))
        scaled = tmd(a, b, cfg(3, w=2.5))
        assert scaled >= base - 1e-12


def test_pairwise_matrix_layout():
    rng = np.random.default_rng(37)
    ds = make_dataset([random_graph(rng, n_max=5) for _ in range(6)])
    c = cfg(2)
    dm = pairwise_matrix(ds, c)
    assert dm.n == 6 and dm.depth == 2
    assert dm.metric == "tmd"
    assert dm.weight_preset == "const:1.0"
    assert len(dm.values) == 15
    full = dm.full()
    assert np.array_equal(full, full.T)
    for i, j in itertools.combinations(range(6), 2):
        assert dm.value(i, j) == tmd(ds[i], ds[j], c)
        assert dm.value(j, i) == dm.value(i, j)
        assert full[i, j] == dm.value(i, j)
    assert dm.value(2, 2) == 0.0
    assert np.array_equal(np.diag(full), np.zeros(6))


def test_kernel_matches_per_block_reference_bit_for_bit():
    # the batched kernel against the one-matching-per-node-pair dynamic
    # program, in both argument orders, each against the reference in the
    # order tmd puts its arguments in; the graph mix puts blocks on both
    # sides of the enumeration threshold and includes edgeless and one-node
    # graphs, and every fifth pair has integer features, so exact ties occur
    rng = np.random.default_rng(43)
    shapes = [dict(n_max=12, p=0.25), dict(n_max=10, p=0.8),
              dict(n_max=3, p=0.5), dict(n_max=6, p=0.0)]
    for i in range(320):
        depth, norm = int(rng.integers(1, 5)), ("l1", "l2")[i % 2]
        c = (random_table_cfg(rng, depth, norm) if i % 3 else
             cfg(depth, float(rng.uniform(0.3, 2.0)), norm))
        a = random_graph(rng, **shapes[i % 4])
        b = random_graph(rng, **shapes[(i // 4) % 4])
        if i % 5 == 0:
            a = Graph(a.node_count, a.edges, np.round(a.features))
            b = Graph(b.node_count, b.edges, np.round(b.features))
        first, second = sorted((a, b), key=lambda g: g._key)
        assert tmd(a, b, c) == reference_tmd(first, second, c)
        assert tmd(b, a, c) == reference_tmd(first, second, c)


def test_injective_maps_match_the_permutation_scan_bit_for_bit():
    # every block shape the kernel enumerates: r real rows and q - r identical
    # blank rows, solved by injective maps and by the old scan of all q!
    # permutations of the padded block, in both orientations; integer entries
    # tie exactly, and mixed magnitudes make float sums round
    rng = np.random.default_rng(47)
    for q in range(1, _ENUM_MAX_Q + 1):
        for r in range(q + 1):
            for kind in ("gauss", "ints", "scaled"):
                if kind == "ints":
                    real = rng.integers(0, 3, (150, r, q)).astype(float)
                    blank = rng.integers(0, 3, (150, q)).astype(float)
                else:
                    real = np.abs(rng.standard_normal((150, r, q)))
                    blank = np.abs(rng.standard_normal((150, q)))
                    if kind == "scaled":
                        real *= 10.0 ** rng.integers(-8, 9, real.shape)
                        blank *= 10.0 ** rng.integers(-8, 9, blank.shape)
                padded = np.concatenate(
                    (real, np.repeat(blank[:, None, :], q - r, axis=1)), axis=1)
                expected = reference_solve_enumerated(padded)
                assert np.array_equal(_solve_injective(padded, r), expected), (q, r, kind)
                assert np.array_equal(reference_solve_enumerated(padded.transpose(0, 2, 1)),
                                      expected), (q, r, kind)


def _block(rng, q, kind):
    if kind == "ints":
        return rng.integers(0, 4, (q, q)).astype(float)
    return rng.uniform(0.0, 1.0, (q, q))


def test_block_solvers_match_the_exhaustive_oracle():
    # the production solvers against the exhaustive permutation scan: LSAP on
    # square q = 5..8 blocks and on r < q real rows given with one blank row,
    # as the kernel passes them, the oracle seeing the q - r blank rows;
    # injective maps on q <= 4 blocks of r real rows then identical blank
    # rows; integer entries in {0..3} tie exactly, uniform ones almost never,
    # and a tail of identical blank rows ties by construction
    rng = np.random.default_rng(67)
    for q in range(5, 9):
        for kind in ("ints", "uniform", "blank-tail"):
            for _ in range(30):
                c = _block(rng, q, kind)
                if kind == "blank-tail":
                    t = int(rng.integers(1, q))
                    c[t:] = c[t]
                assert _solve_lsap(c[None], q)[0] == brute_force_matching(c).total_cost, (q, kind)
        for r in range(q):
            for kind in ("ints", "uniform"):
                for _ in range(15):
                    c = _block(rng, q, kind)
                    c[r:] = c[r]
                    value = _solve_lsap(c[None, :r + 1], r)[0]
                    assert value == brute_force_matching(c).total_cost, (q, r, kind)
    for q in range(1, _ENUM_MAX_Q + 1):
        for r in range(q + 1):
            for kind in ("ints", "uniform"):
                for _ in range(20):
                    c = _block(rng, q, kind)
                    c[r:] = c[min(r, q - 1)]
                    value = _solve_injective(c[None], r)[0]
                    assert value == brute_force_matching(c).total_cost, (q, r, kind)


def _lsap_blocks(rng, count, q, r, kind):
    """``count`` blocks of r real rows over q columns and one blank row, as
    the kernel gathers them for q > 4."""
    if kind == "ints":
        blocks = rng.integers(0, 4, (count, r + 1, q)).astype(float)
    else:
        blocks = np.abs(rng.standard_normal((count, r + 1, q)))
    if kind == "blank-tail":  # the last real row equals the blank row
        blocks[:, r - 1] = blocks[:, r]
    if kind == "scaled":
        blocks *= 10.0 ** rng.integers(-8, 9, blocks.shape)
    if kind == "near-ties":
        # integers a hair apart, and a blank row 1e8 times larger at r
        # columns: the reduced costs there round by ~1e-8, so rounding, not
        # the hair, orders the integers' ties
        blocks = rng.integers(0, 4, blocks.shape) + 1e-9 * rng.random(blocks.shape)
        big = rng.random((count, q)).argsort(axis=1)[:, :r]
        blocks[np.arange(count)[:, None], r, big] *= 1e8
    return blocks


def test_few_map_blocks_pick_the_solvers_assignment_bit_for_bit():
    # every shape whose maps are enumerated, and r = 4 at q = 5, one past the
    # budget, against one linear_sum_assignment per block; integer entries in
    # {0..3} tie exactly, a real row equal to the blank row ties every column
    # it can take, and entries scaled by 1e-8 to 1e8 or near ties make the
    # reduced costs round, so that only the solver can break some ties
    few = TMD_MODULE._FEW_MAPS
    assert set(few) == {(q, 2) for q in range(5, 15)} | {(5, 3), (6, 3)}
    rng = np.random.default_rng(89)
    for q, r in [*sorted(few), (5, 4)]:
        for kind in ("gauss", "ints", "blank-tail", "scaled", "near-ties"):
            blocks = _lsap_blocks(rng, 400, q, r, kind)
            assert (_solve_lsap(blocks, r).tobytes()
                    == reference_solve_lsap(blocks, r).tobytes()), (q, r, kind)


def test_only_near_ties_of_few_map_blocks_reach_the_solver(monkeypatch):
    calls, solver = [], TMD_MODULE.linear_sum_assignment

    def spy(cost):
        calls.append(cost.shape)
        return solver(cost)

    monkeypatch.setattr(TMD_MODULE, "linear_sum_assignment", spy)
    rng = np.random.default_rng(97)
    for q, r in ((6, 2), (14, 2), (6, 3)):
        blocks = _lsap_blocks(rng, 50, q, r, "gauss")
        assert _solve_lsap(blocks, r).tobytes() == reference_solve_lsap(blocks, r).tobytes()
    assert calls == []
    # every map of an all-ones block ties, and two maps a relative 1e-12
    # apart are within the margin: the solver picks
    ties = np.ones((1, 3, 6))
    near = np.zeros((1, 3, 6))
    near[0, :2] = [[1.0, 1.0 + 1e-12, 5, 5, 5, 5], [5, 5, 1, 5, 5, 5]]
    assert _solve_lsap(ties, 2).tolist() == [6.0]
    assert _solve_lsap(near, 2).tolist() == [2.0]
    assert calls == [(2, 6), (2, 6)]


def test_hub_blocks_solve_only_the_smaller_sides_children(monkeypatch):
    # two 40-node stars at depth 2: the centres' 39 x 39 block and the
    # 40 x 40 top level are the only solver calls, so no cost matrix has
    # more rows than the smaller side has children (or nodes, at the top
    # level); a centre against a leaf (one child against 39) and a leaf
    # against a leaf need no call
    shapes, solver = [], TMD_MODULE.linear_sum_assignment

    def spy(cost):
        shapes.append(cost.shape)
        return solver(cost)

    monkeypatch.setattr(TMD_MODULE, "linear_sum_assignment", spy)
    rng = np.random.default_rng(71)
    a, b = (Graph(40, [(0, v) for v in range(1, 40)], rng.standard_normal((40, 2)))
            for _ in range(2))
    value = tmd(a, b, cfg(2))
    assert sorted(shapes) == [(39, 39), (40, 40)]
    first, second = sorted((a, b), key=lambda g: g._key)
    assert value == reference_tmd(first, second, cfg(2))


def _tie_graph(rng, kind):
    g = random_graph(rng, n_max=12, p=float(rng.uniform(0.1, 0.9)))
    if kind == "gauss":
        return g
    shape = g.features.shape
    features = np.ones(shape) if kind == "ones" else rng.integers(0, 3, shape).astype(float)
    return Graph(g.node_count, g.edges, features)


# generator: how many of its 660 pair values differ from the per-block reference
TIED_LAST_BITS = {"ones": 7, "ints": 2, "gauss": 0}


@pytest.mark.parametrize("kind", sorted(TIED_LAST_BITS))
def test_tied_features_move_only_pinned_last_bits(kind):
    # ten datasets of 12 graphs (n <= 12, depth 1-4) against the square
    # per-block dynamic program; on tied costs the kernel's rectangular
    # solves and the reference's padded ones may pick different tied
    # assignments, whose exact sums differ in the last bits
    rng = np.random.default_rng(83)
    moved = []
    for s in range(10):
        graphs = [_tie_graph(rng, kind) for _ in range(12)]
        c = cfg(1 + s % 4)
        values = pairwise_matrix(make_dataset(graphs), c).values
        for value, (i, j) in zip(values, itertools.combinations(range(12), 2)):
            first, second = sorted((graphs[i], graphs[j]), key=lambda g: g._key)
            expected = reference_tmd(first, second, c)
            if value != expected:
                moved.append(abs(value - expected) / np.spacing(max(value, expected)))
    assert len(moved) == TIED_LAST_BITS[kind]
    assert max(moved, default=0.0) <= 2.0


def test_pairwise_matrix_across_chunks_matches_tmd_bit_for_bit(monkeypatch):
    # one-pair batches against chunks of a few pairs whose block groups are
    # split into small solver calls; the dataset holds a 0-node, a 1-node and
    # an edgeless graph, and a star wider than any other graph, so chunks mix
    # neighbour tables of different widths; every fifth graph has integer
    # features
    rng = np.random.default_rng(53)
    shapes = [dict(n_max=9, p=0.3), dict(n_max=7, p=0.8), dict(n_max=4, p=0.5)]
    graphs = [empty_graph(2), Graph(1, [], rng.standard_normal((1, 2))),
              Graph(4, [], rng.standard_normal((4, 2)))]
    graphs += [random_graph(rng, **shapes[i % 3]) for i in range(13)]
    graphs.append(Graph(12, [(0, v) for v in range(1, 12)], rng.standard_normal((12, 2))))
    graphs = [Graph(g.node_count, g.edges, np.round(g.features)) if i % 5 == 0 else g
              for i, g in enumerate(graphs)]
    ds = make_dataset(graphs)
    pairs = list(itertools.combinations(range(len(ds)), 2))
    for depth in range(1, 5):
        c = random_table_cfg(rng, depth, ("l1", "l2")[depth % 2])
        expected = np.array([tmd(ds[i], ds[j], c) for i, j in pairs])
        with monkeypatch.context() as m:
            m.setattr(TMD_MODULE, "_CHUNK_ENTRIES", 150)
            m.setattr(TMD_MODULE, "_SOLVE_ENTRIES", 40)
            values = pairwise_matrix(ds, c).values
        assert values.tobytes() == expected.tobytes(), depth


def test_distances_memory_does_not_grow_with_the_graph_count():
    # each chunk builds the node table of its own graphs, so the peak up to
    # the first distance is that of one pair of hubs, however many follow
    rng = np.random.default_rng(61)

    def peak(count):
        hubs = [Graph(60, [(0, v) for v in range(1, 60)], rng.standard_normal((60, 2)))
                for _ in range(count)]
        tracemalloc.start()
        try:
            first = next(TMD_MODULE._distances(
                hubs, itertools.combinations(range(count), 2), cfg(2)))
            assert first == tmd(hubs[0], hubs[1], cfg(2))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) < 2 * peak(20)


def test_top_level_runs_without_the_entry_map(monkeypatch):
    # two 300-node G(n, 4/n) graphs at depth 2: with the per-entry map and
    # the cell arrays still held through the top-level matching, the peak
    # traced ~11.3 MiB; released before it, ~10.5 MiB; with an int32 map
    # released before the first level, ~4.6 MiB
    rng = np.random.default_rng(300)
    ga, gb = (random_graph(rng, n_max=300, n_min=300, p=4 / 300) for _ in range(2))
    # on any allocator: _cells' three map inputs and four cell arrays are all
    # dead when the one 300-wide (top-level) matching starts
    refs, alive_at_top = [], []
    cells, solve = TMD_MODULE._cells, TMD_MODULE._solve_lsap

    def spy_cells(owner, ua, vb, deg, blank):
        out = cells(owner, ua, vb, deg, blank)
        refs.extend(weakref.ref(a) for a in (owner, ua, vb, *out[0]))
        return out

    def spy_solve(blocks, r):
        if blocks.shape[2] == 300:
            alive_at_top.append(sum(ref() is not None for ref in refs))
        return solve(blocks, r)

    with monkeypatch.context() as m:
        m.setattr(TMD_MODULE, "_cells", spy_cells)
        m.setattr(TMD_MODULE, "_solve_lsap", spy_solve)
        expected = tmd(ga, gb, cfg(2))  # the first call also imports and warms up
    assert len(refs) == 7 and alive_at_top == [0]
    tracemalloc.start()
    try:
        value = tmd(ga, gb, cfg(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak <= 5.0 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def _one_chunk_dataset():
    # 12 seeded G(n, 0.2) graphs of 10-25 nodes with 3-d features, whose
    # pairs' extended tables fill one chunk
    rng = np.random.default_rng(101)
    graphs = [synth_random_graph(rng, n, 0.2, feature_dim=3)
              for n in np.linspace(10, 25, 12).astype(int).tolist()]
    entries = sum((a.node_count + 1) * (b.node_count + 1)
                  for a, b in itertools.combinations(graphs, 2))
    assert TMD_MODULE._CHUNK_ENTRIES // 2 < entries < TMD_MODULE._CHUNK_ENTRIES
    return make_dataset(graphs), entries


def _traced_matrix(ds, c):
    pairwise_matrix(ds, c)  # the first call also fills each graph's lazy arrays
    tracemalloc.start()
    try:
        values = pairwise_matrix(ds, c).values
        return values, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the traced peak of one chunk's pairwise_matrix, per extended-table entry:
# 64 bytes measured on numpy 2.4 (the per-entry map, cells and tables in int32
# and float64, plus the bounded solver gathers), with a margin
CHUNK_BYTES_PER_ENTRY = 70


def test_one_chunk_peaks_within_the_stated_bytes_per_entry():
    ds, entries = _one_chunk_dataset()
    _, peak = _traced_matrix(ds, cfg(3))
    assert peak <= CHUNK_BYTES_PER_ENTRY * entries, f"{peak / entries:.1f} B per entry"


def test_int64_indices_give_the_int32_bits(monkeypatch):
    # a chunk of at least _INT32_ENTRIES entries indexes them with int64:
    # the same values, from a larger working set
    ds, _ = _one_chunk_dataset()
    narrow, narrow_peak = _traced_matrix(ds, cfg(3))
    monkeypatch.setattr(TMD_MODULE, "_INT32_ENTRIES", 1)
    wide, wide_peak = _traced_matrix(ds, cfg(3))
    assert wide.tobytes() == narrow.tobytes()
    assert wide_peak > narrow_peak


def _chain(n, features):
    return Graph(n, [(u, u + 1) for u in range(n - 1)], features)


@pytest.mark.filterwarnings("error")
def test_overflow_in_a_batch_names_its_pair(monkeypatch):
    # the overflowing graph sits in the middle of the dataset, so chunks
    # before it finish; the first pair that holds it is (0, 2)
    monkeypatch.setattr(TMD_MODULE, "_CHUNK_ENTRIES", 20)
    rng = np.random.default_rng(59)
    small = [_chain(n, rng.uniform(0, 2, (n, 1))) for n in (2, 3, 4, 6)]
    big = TmdConfig(depth=3, weights=const_weights(1000.0), feature_norm="l1")
    ds = make_dataset([*small[:2], _chain(5, np.full((5, 1), 1e306)), *small[2:]])
    with pytest.raises(NumericalOverflowError, match=r"n=2 vs n=5\)"):
        pairwise_matrix(ds, big)
    # every entry is finite, but an exact sum of two of them is not
    ds = make_dataset([*small[:2], _chain(5, np.full((5, 1), 1.5e308)), *small[2:]])
    with pytest.raises(NumericalOverflowError) as info:
        pairwise_matrix(ds, cfg(2, norm="l1"))
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("depth", [2, 3])
def test_overflow_in_a_chunk_of_pairs_names_its_own_pair(depth):
    # every pair runs in one chunk, and the first to overflow is the third,
    # (0, 3): the message names its node counts, not those of the chunk's first
    rng = np.random.default_rng(67)
    small = [_chain(n, rng.uniform(0, 2, (n, 1))) for n in (2, 3, 3)]
    ds = make_dataset([*small, _chain(4, np.full((4, 1), 1e306))])
    big = TmdConfig(depth=depth, weights=const_weights(1000.0), feature_norm="l1")
    with pytest.raises(NumericalOverflowError, match=r"\(n=2 vs n=4\)"):
        pairwise_matrix(ds, big)


@pytest.mark.filterwarnings("error")
def test_overflow_raises_numerical_overflow_error():
    g = Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1e306))
    big = TmdConfig(depth=3, weights=const_weights(1000.0), feature_norm="l1")
    with pytest.raises(NumericalOverflowError):
        tmd(g, P2, big)
    # every entry is finite, but the exact sum of two of them is not
    huge = Graph(3, [(0, 1), (1, 2)], np.full((3, 1), 1.5e308))
    for distance in (tmd, lambda a, b, c: pairwise_matrix(make_dataset([a, b]), c)):
        with pytest.raises(NumericalOverflowError) as info:
            distance(huge, P2, cfg(2, norm="l1"))
        assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.filterwarnings("error")
def test_l2_cross_distance_of_huge_feature_does_not_overflow():
    # squaring 1e200 overflows, but the distance fits in a float
    c = TmdConfig(depth=1, feature_norm="l2")
    assert tmd(Graph(1, [], [[1e200]]), Graph(1, [], [[1.0]]), c) == 1e200
    a = Graph(2, [(0, 1)], [[1e200, -1e200], [3.0, 4.0]])
    b = Graph(2, [(0, 1)], [[0.0, 0.0], [0.0, 1e-3]])
    cost = _cross_distances(a.features, b.features, "l2")
    assert cost[0, 0] == math.hypot(1e200, 1e200)
    # finite entries keep cdist's bits
    assert cost[1, 1] == np.sqrt(3.0 ** 2 + (4.0 - 1e-3) ** 2)
    assert 1e200 < tmd(a, b, cfg(3)) < np.inf


@pytest.mark.filterwarnings("error")
def test_naive_l2_distance_of_huge_feature_agrees_with_tmd():
    # squaring 1e200 overflows in the oracle's node distances too
    c = TmdConfig(depth=1, feature_norm="l2")
    a, b = Graph(1, [], [[1e200]]), Graph(1, [], [[1.0]])
    assert tmd_naive(a, b, c) == tmd(a, b, c) == 1e200


@pytest.mark.parametrize("edge", [(-1, 1), (0, 5), (1, 1)])
def test_bad_edge_raises_dataset_error(edge):
    # the graph is refused when built, before any adjacency user sees it
    with pytest.raises(DatasetError, match="edge") as info:
        Graph(3, [edge], np.ones((3, 1)))
    assert ("self-loop" in str(info.value)) == (edge[0] == edge[1])
