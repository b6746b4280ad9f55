import itertools
import json
import math
import re

import numpy as np
import pytest

from treesample import (ConfigError, Graph, build_candidates, empty_graph, induced_subgraph,
                        make_dataset, select_subsets, subsample_dataset, tree_norm)
from treesample.oracles import brute_force_select, tree_norm_decision
from treesample.node_select import (_core_numbers as core_numbers,
                                    _k_bfs_candidates as k_bfs_candidates,
                                    _kcore_candidate as kcore_candidate,
                                    _rw_candidate as rw_candidate, mean_tmd)

from helpers import (cfg, random_graph, random_table_cfg,
                     reference_brute_force_select, reference_core_numbers,
                     reference_k_bfs_candidates, reference_select_subset)

STAR = Graph(4, [(0, 1), (0, 2), (0, 3)], np.ones((4, 1)))
PATH5 = Graph(5, [(i, i + 1) for i in range(4)], np.ones((5, 1)))


def test_candidate_set_deduplicates():
    # on the star every 4-node BFS ball, the walk and the core are one set
    cands = build_candidates(STAR, 4, seed=0)
    assert cands == {(0, 1, 2, 3): "bfs:0"}
    # at k = 1 the walk and the core pick are both the hub's ball
    cands = build_candidates(STAR, 1, seed=0)
    assert list(cands) == [(0,), (1,), (2,), (3,)]
    assert list(cands.values()) == ["bfs:0", "bfs:1", "bfs:2", "bfs:3"]


def test_candidate_keys_are_sorted_tuples_of_python_ints():
    rng = np.random.default_rng(22)
    for trial in range(12):
        g = random_graph(rng, n_max=20, n_min=1, p=float(rng.uniform(0.05, 0.4)))
        k = int(rng.integers(1, g.node_count + 1))
        for subset in build_candidates(g, k, seed=trial):
            assert subset == tuple(sorted(set(subset)))
            assert all(type(v) is int for v in subset)


def test_bfs_balls_match_canonicalising_add_on_seeded_graphs():
    # k_bfs_candidates inserts each ball as built; the original path sorted
    # and converted every ball again before inserting it
    rng = np.random.default_rng(21)
    for trial in range(24):
        g = random_graph(rng, n_max=30, p=(0.05, 0.15, 0.4)[trial % 3])
        for k in sorted({1, 2, g.node_count // 2 + 1, g.node_count}):
            got, want = k_bfs_candidates(g, k), reference_k_bfs_candidates(g, k)
            assert list(got.items()) == list(want.items())
            assert all(type(v) is int for s in got for v in s)


def test_bfs_balls_on_star():
    cands = k_bfs_candidates(STAR, 1)
    assert list(cands) == [(0,), (1,), (2,), (3,)]
    # k = 4 admits the full 1-ball around the hub and 2-balls around leaves
    full = k_bfs_candidates(STAR, 4)
    assert (0, 1, 2, 3) in full


def test_bfs_ball_respects_budget():
    for k in range(1, 6):
        for subset in k_bfs_candidates(PATH5, k):
            assert 1 <= len(subset) <= k


def _sparse_graph(rng, n, p):
    """G(n, p) with several components and isolated nodes at small p."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    return Graph(n, zip(*np.nonzero(upper)), np.ones((n, 1)))


def test_bfs_balls_match_python_bfs():
    rng = np.random.default_rng(5)
    graphs = [Graph(0, [], np.zeros((0, 1))), Graph(1, [], np.ones((1, 1)))]
    graphs += [_sparse_graph(rng, int(rng.integers(2, 16)), p)
               for p in (0.05, 0.15, 0.3, 0.6) for _ in range(4)]
    for g in graphs:
        for k in range(1, max(g.node_count, 1) + 1):
            got, want = k_bfs_candidates(g, k), reference_k_bfs_candidates(g, k)
            assert list(got.items()) == list(want.items())


def test_bfs_balls_match_python_bfs_at_budget_edges():
    # k = n - 1 and k > n take the no-partition branch of every block
    rng = np.random.default_rng(31)
    graphs = [Graph(0, [], np.zeros((0, 1))), Graph(1, [], np.ones((1, 1))),
              Graph(5, [], np.ones((5, 1)))]
    graphs += [random_graph(rng, n_max=25, p=p) for p in (0.05, 0.15, 0.4) for _ in range(6)]
    for g in graphs:
        n = g.node_count
        for k in sorted({1, 2, n // 2, n - 1, n + 3} - {0, -1}):
            got, want = k_bfs_candidates(g, k), reference_k_bfs_candidates(g, k)
            assert list(got.items()) == list(want.items())


def test_bfs_balls_match_python_bfs_across_root_blocks():
    # more than 512 nodes, so hop counts come from two shortest_path blocks
    g = _sparse_graph(np.random.default_rng(6), 530, 1.2 / 530)
    assert (g.degrees() == 0).any()
    for k in (1, 3, 40, 530):
        got, want = k_bfs_candidates(g, k), reference_k_bfs_candidates(g, k)
        assert list(got.items()) == list(want.items())


def test_core_numbers_known_graphs():
    k4 = Graph(4, list(itertools.combinations(range(4), 2)), np.ones((4, 1)))
    assert list(core_numbers(k4)) == [3, 3, 3, 3]
    assert list(core_numbers(PATH5)) == [1, 1, 1, 1, 1]
    tri_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], np.ones((4, 1)))
    assert list(core_numbers(tri_pendant)) == [2, 2, 2, 1]


def test_core_numbers_match_argmin_peel_on_seeded_graphs():
    rng = np.random.default_rng(30)
    graphs = [Graph(0, [], np.zeros((0, 1))), Graph(1, [], np.ones((1, 1))),
              Graph(6, [], np.ones((6, 1))),
              Graph(7, list(itertools.combinations(range(7), 2)), np.ones((7, 1)))]
    graphs += [random_graph(rng, n_max=30, n_min=0, p=float(rng.uniform(0.0, 0.8)))
               for _ in range(500)]
    for g in graphs:
        got = core_numbers(g)
        assert got.dtype == np.int64
        assert got.tolist() == reference_core_numbers(g).tolist()


def test_kcore_candidate_prefers_dense_part():
    tri_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], np.ones((4, 1)))
    assert kcore_candidate(tri_pendant, 3) == (0, 1, 2)
    assert kcore_candidate(tri_pendant, 1) == (2,)  # top core, highest degree


def test_rw_candidate_is_seeded_and_sized():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], np.ones((6, 1)))
    a = rw_candidate(g, 3, np.random.default_rng(7))
    assert a == rw_candidate(g, 3, np.random.default_rng(7))
    assert len(a) == 3
    assert all(0 <= v < 6 for v in a)


def test_rw_candidate_pads_disconnected_graph():
    g = Graph(4, [(0, 1)], np.ones((4, 1)))
    assert len(rw_candidate(g, 4, np.random.default_rng(0))) == 4


@pytest.mark.parametrize("k", [0, -1, 2.5, np.float64(2.0), True, "2"])
def test_build_candidates_checks_k_for_every_heuristic(k):
    # the only k check: the BFS balls, the walk and the core pick trust it
    message = re.escape(f"k must be >= 1, got {k}" if type(k) is int
                        else f"k must be an integer, got {k!r}")
    with pytest.raises(ConfigError, match=message):
        build_candidates(STAR, k, 0)


def test_build_candidates_of_a_graph_without_nodes_is_the_empty_walk():
    # no BFS root and no core: only the walk yields a set, the empty one
    assert build_candidates(empty_graph(2), 1, 0) == {(): "rw"}


def test_bfs_only_candidates_are_the_bfs_set():
    # the pool is the BFS set, in its order, then the walk and the core
    # pick where they add a subset the balls do not hold
    rng = np.random.default_rng(24)
    for _ in range(12):
        g = random_graph(rng, n_max=20, n_min=1, p=float(rng.uniform(0.05, 0.4)))
        k = int(rng.integers(1, g.node_count + 1))
        got = list(build_candidates(g, k, 0).items())
        want = k_bfs_candidates(g, k)
        assert got[:len(want)] == list(want.items())
        want.setdefault(rw_candidate(g, k, np.random.default_rng(0)), "rw")
        want.setdefault(kcore_candidate(g, k), "kcore")
        assert got == list(want.items())


def test_select_subset_takes_largest_norm():
    c = cfg(2)
    g = Graph(3, [(0, 1)], np.array([[5.0], [1.0], [1.0]]))
    cands = {(1, 2): "small", (0, 1): "large"}
    pick, = select_subsets(g, cands, [c], graph_id=3)
    assert pick.kept == (0, 1)
    assert pick.provenance == "large"
    assert pick.graph_id == 3
    assert pick.tree_norm_full == tree_norm(g, c)
    assert pick.tmd_to_full == pick.tree_norm_full - pick.tree_norm_sub


def test_select_subset_tie_is_lexicographic():
    g = Graph(3, [], np.ones((3, 1)))  # no edges: every pair has norm 2
    cands = {(1, 2): "x", (0, 2): "y"}
    assert select_subsets(g, cands, [cfg(2)])[0].kept == (0, 2)


def test_brute_force_select_matches_exhaustive_max():
    rng = np.random.default_rng(15)
    c = cfg(3)
    for _ in range(10):
        g = random_graph(rng, n_max=6, n_min=2)
        k = int(rng.integers(1, g.node_count + 1))
        best = brute_force_select(g, k, c)
        norms = {s: tree_norm(induced_subgraph(g, s), c)
                 for s in itertools.combinations(range(g.node_count), k)}
        assert best.tree_norm_sub == max(norms.values())
        assert best.kept == min(s for s, v in norms.items()
                                if v == max(norms.values()))


def test_heuristic_selection_never_beats_brute_force():
    rng = np.random.default_rng(16)
    c = cfg(2)
    for _ in range(10):
        g = random_graph(rng, n_max=7, n_min=2)
        k = int(rng.integers(1, g.node_count + 1))
        cands = build_candidates(g, k, seed=1)
        pick, = select_subsets(g, cands, [c])
        assert pick.tree_norm_sub <= brute_force_select(g, k, c).tree_norm_sub + 1e-12


def test_tree_norm_decision_threshold():
    c = cfg(2)
    best = brute_force_select(STAR, 2, c).tree_norm_sub
    assert tree_norm_decision(STAR, 2, best, c)
    assert not tree_norm_decision(STAR, 2, best + 1e-6, c)


def test_subsample_dataset_fraction_rounding():
    rng = np.random.default_rng(8)
    ds = make_dataset([random_graph(rng, n_max=7, n_min=1) for _ in range(8)])
    c = cfg(2)
    subs = subsample_dataset(ds, 0.5, c, seed=0)
    for g, sub in zip(ds, subs):
        expected = min(g.node_count, max(1, int(math.floor(0.5 * g.node_count + 0.5))))
        assert len(sub.kept) == expected
    full = subsample_dataset(ds, 1.0, c, seed=0)
    assert all(s.tmd_to_full == 0.0 for s in full)
    with pytest.raises(ConfigError):
        subsample_dataset(ds, 0.0, c)


def test_mean_tmd_takes_a_one_pass_iterable():
    rng = np.random.default_rng(8)
    ds = make_dataset([random_graph(rng, n_max=7, n_min=2) for _ in range(8)])
    subs = subsample_dataset(ds, 0.5, cfg(2), seed=0)
    mean = math.fsum(s.tmd_to_full for s in subs) / len(subs)
    assert mean > 0.0
    assert mean_tmd(iter(subs)) == mean_tmd(subs) == mean
    assert mean_tmd(s for s in subs) == mean
    assert mean_tmd(iter([])) == mean_tmd([]) == 0.0


def test_subsample_dataset_handles_empty_graph():
    from treesample import empty_graph
    ds = make_dataset([empty_graph(1)])
    sub = subsample_dataset(ds, 0.5, cfg(2))[0]
    assert sub.kept == ()
    assert sub.provenance == "empty"
    assert sub.tmd_to_full == 0.0


def test_subsample_jsonl_round_trip():
    # the --out file of subsample-nodes holds these lines (tests/test_cache_cli.py)
    rng = np.random.default_rng(10)
    ds = make_dataset([random_graph(rng, n_max=6, n_min=2) for _ in range(4)])
    subs = subsample_dataset(ds, 0.6, cfg(2), seed=3)
    for s in subs:
        rec = json.loads(s.to_json())
        assert rec == {"id": s.graph_id, "kept": list(s.kept),
                       "tree_norm_full": s.tree_norm_full, "tree_norm_sub": s.tree_norm_sub,
                       "tmd": s.tmd_to_full, "provenance": s.provenance}


def test_select_subset_bit_identical_to_per_candidate_loop():
    rng = np.random.default_rng(17)
    for trial in range(40):
        g = random_graph(rng, n_max=16, n_min=1, feature_dim=3,
                         p=float(rng.uniform(0.05, 0.6)))
        if trial % 4 == 0:  # unit features and few edges give exact ties
            g = Graph(g.node_count, g.edges[:2], np.ones((g.node_count, 1)))
        c = random_table_cfg(rng, int(rng.integers(1, 5)),
                             norm=str(rng.choice(["l1", "l2"])))
        k = int(rng.integers(1, g.node_count + 1))
        cands = build_candidates(g, k, seed=trial)
        got, = select_subsets(g, cands, [c], graph_id=trial)
        want = reference_select_subset(g, cands, c, graph_id=trial)
        assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize("block", [None, 40])
def test_select_subsets_match_per_config_loop(monkeypatch, block):
    import treesample.treenorm as treenorm
    if block is not None:  # a few subsets per pass, so ties straddle chunks
        monkeypatch.setattr(treenorm, "_SUBSET_BLOCK", block)
    rng = np.random.default_rng(19)
    for trial in range(30):
        g = random_graph(rng, n_max=14, n_min=1, feature_dim=2,
                         p=float(rng.uniform(0.05, 0.6)))
        if trial % 4 == 0:  # unit features and few edges give exact ties
            g = Graph(g.node_count, g.edges[:2], np.ones((g.node_count, 1)))
        # mixed depths, norms and weight tables, a depth-1 config, a repeat
        cfgs = [random_table_cfg(rng, int(rng.integers(1, 5)),
                                 norm=str(rng.choice(["l1", "l2"])))
                for _ in range(3)]
        cfgs += [cfg(1, norm="l1"), cfg(4, 0.5), cfgs[0]]
        cands = build_candidates(g, int(rng.integers(1, g.node_count + 1)), seed=trial)
        got = select_subsets(g, cands, cfgs, graph_id=trial)
        want = [reference_select_subset(g, cands, c, graph_id=trial) for c in cfgs]
        assert got == want and [p.to_json() for p in got] == [w.to_json() for w in want]
    assert select_subsets(g, cands, []) == []
    with pytest.raises(ConfigError, match="candidate set is empty"):
        select_subsets(g, {}, cfgs)


@pytest.mark.parametrize("block", [None, 40])
def test_brute_force_select_bit_identical_to_per_candidate_loop(monkeypatch, block):
    import treesample.treenorm as treenorm
    if block is not None:  # a few subsets per pass, so ties straddle chunks
        monkeypatch.setattr(treenorm, "_SUBSET_BLOCK", block)
    rng = np.random.default_rng(18)
    graphs = [random_graph(rng, n_max=9, n_min=1, p=float(rng.uniform(0.1, 0.6)))
              for _ in range(12)]
    graphs.append(Graph(7, [(0, 1), (5, 6)], np.ones((7, 1))))
    for i, g in enumerate(graphs):
        c = cfg(int(rng.integers(1, 5)), norm=str(rng.choice(["l1", "l2"])))
        for k in {1, (g.node_count + 1) // 2, g.node_count}:
            got = brute_force_select(g, k, c, graph_id=i)
            want = reference_brute_force_select(g, k, c, graph_id=i)
            assert got == want and got.to_json() == want.to_json()
