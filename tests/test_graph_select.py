import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from treesample import (ConfigError, DatasetError, DistanceMatrix, Graph, Selection,
                        feature_distance_matrix, kmedoids, make_dataset, nearest_medoid,
                        random_selection, wl_counterexample_pair, wl_pseudometric_matrix)
from treesample.oracles import brute_force_medoids
from treesample import graph_select

from helpers import (cfg, random_graph, reference_feature_distance_matrix,
                     reference_kmedoids, reference_wl_pseudometric_matrix,
                     wl_histograms)


def random_dm(rng, n, scale=10.0, metric="test"):
    vals = rng.uniform(0.1, scale, size=n * (n - 1) // 2)
    return DistanceMatrix(n=n, values=vals, metric=metric, depth=1,
                          weight_preset="const:1.0")


def test_nearest_medoid_and_sizes_hand_checked():
    # 4 points on a line at 0, 1, 5, 6
    pos = np.array([0.0, 1.0, 5.0, 6.0])
    vals = np.array([abs(pos[i] - pos[j]) for i in range(4) for j in range(i + 1, 4)])
    d = DistanceMatrix(4, "test", 1, "const:1.0", vals)
    owners, near = nearest_medoid(d, [0, 3])
    assert owners.tolist() == [0, 0, 3, 3]
    assert near.tolist() == [0.0, 1.0, 1.0, 0.0]
    assert np.bincount(owners)[[0, 3]].tolist() == [2, 2]
    assert near.mean() == (0 + 1 + 1 + 0) / 4


def test_nearest_medoid_tie_prefers_smaller_index():
    vals = np.zeros(3)  # all distances zero, n = 3
    d = DistanceMatrix(3, "test", 1, "const:1.0", vals)
    owners, near = nearest_medoid(d, [2, 1])
    assert owners.tolist() == [1, 1, 1]
    assert near.tolist() == [0.0, 0.0, 0.0]


def test_nearest_medoid_refuses_indices_that_are_not_integers():
    d = DistanceMatrix(4, "test", 1, "const:1.0", np.arange(1.0, 7.0))
    for bad in ([0.9, 3], [True, 3], [np.float64(1.0), 3], ["1", 3], [None]):
        with pytest.raises(ConfigError, match=f"^medoid index must be an integer, "
                                              f"got {re.escape(repr(bad[0]))}$"):
            nearest_medoid(d, bad)
    owners, _ = nearest_medoid(d, np.array([3, 1], dtype=np.int32))
    assert owners.tolist() == [1, 1, 1, 3]


@pytest.mark.parametrize("bad, message", [
    ([], "medoid index set must be non-empty"),
    ([1, 3, 1], r"duplicate medoid indices: \[1, 1, 3\]"),
    ([0, 4], r"medoid index must be in 0\.\.3, got 4"),
    ([-1, 2], r"medoid index must be in 0\.\.3, got -1"),
], ids=["empty", "duplicate", "past-the-end", "negative"])
def test_nearest_medoid_refuses_a_bad_index_set(bad, message):
    d = DistanceMatrix(4, "test", 1, "const:1.0", np.arange(1.0, 7.0))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        nearest_medoid(d, bad)


def test_distance_matrix_value_range_checks_the_diagonal():
    d = DistanceMatrix(2, "test", 1, "const:1.0", np.array([3.0]))
    assert (d.value(0, 0), d.value(1, 1), d.value(1, 0)) == (0.0, 0.0, 3.0)
    for i, j in ((5, 5), (-1, -1), (2, 2), (0, 2)):
        bad = j if 0 <= i < 2 else i
        with pytest.raises(ConfigError, match=rf"^pair index must be in 0\.\.1, got {bad}$"):
            d.value(i, j)


def test_kmedoids_trivial_cases():
    rng = np.random.default_rng(0)
    d = random_dm(rng, 5)
    all_of_them = kmedoids(d, 5)
    assert all_of_them.indices == list(range(5))
    assert all_of_them.objective == 0.0
    one = kmedoids(d, 1)
    best = min(range(5), key=lambda j: sum(d.value(i, j) for i in range(5)))
    assert one.indices == [best]


def test_kmedoids_matches_brute_force_mostly():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(40):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        d = random_dm(rng, n)
        pam = kmedoids(d, k)
        opt = brute_force_medoids(d, k)
        assert pam.objective <= opt.objective * 1.05 + 1e-12
        hits += pam.objective == opt.objective
    assert hits >= 38  # PAM finds the optimum on nearly every desk-scale run


def test_kmedoids_trace_is_monotone():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = random_dm(rng, 9)
        trace = []
        kmedoids(d, 3, trace=trace)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_kmedoids_is_deterministic():
    rng = np.random.default_rng(9)
    d = random_dm(rng, 8)
    a, b = kmedoids(d, 3), kmedoids(d, 3)
    assert a == b


def seeded_dm(rng, n, kind):
    """Euclidean cloud, integer distances in 0..3 (heavy ties) or 2-decimal values."""
    m = n * (n - 1) // 2
    if kind == "euclid":
        vals = pdist(rng.standard_normal((n, 2)))
    elif kind == "ties":
        vals = rng.integers(0, 4, size=m).astype(np.float64)
    else:
        vals = np.round(rng.uniform(0.0, 5.0, size=m), 2)
    return DistanceMatrix(n, kind, 1, "const:1.0", vals)


def assert_same_as_reference(d, k):
    got_trace, ref_trace = [], []
    got = kmedoids(d, k, trace=got_trace)
    ref = reference_kmedoids(d, k, trace=ref_trace)
    assert got.to_json() == ref.to_json()
    assert got_trace == ref_trace


@pytest.mark.parametrize("kind", ["euclid", "ties", "rounded"])
def test_kmedoids_bit_identical_to_one_swap_at_a_time(kind):
    rng = np.random.default_rng(["euclid", "ties", "rounded"].index(kind))
    # every instance here is small enough for pair sweeps to run
    for n in (1, 2, 3, 5, 8, 13, 21):
        for k in sorted({1, 2, n // 3, n - 1, n}):
            if 1 <= k <= n:
                assert_same_as_reference(seeded_dm(rng, n, kind), k)
    for _ in range(25):
        n = int(rng.integers(4, 26))
        k = int(rng.integers(1, min(n, 7) + 1))
        assert_same_as_reference(seeded_dm(rng, n, kind), k)


def test_kmedoids_bit_identical_above_pair_budget():
    n, k = 110, 10  # C(10, 2) * C(100, 2) = 222,750 > 200,000: single swaps only
    assert math.comb(k, 2) * math.comb(n - k, 2) > 200_000
    assert_same_as_reference(seeded_dm(np.random.default_rng(7), n, "euclid"), k)


@pytest.mark.parametrize("kind", ["euclid", "ties", "rounded"])
def test_kmedoids_bit_identical_with_one_medoid(kind):
    # k = 1: no second-nearest medoid, so every point's sec is inf
    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 30, 64):
        assert_same_as_reference(seeded_dm(rng, n, kind), 1)


def test_kmedoids_bit_identical_when_medoids_tie_for_nearest():
    # duplicate points: a point can sit at equal distance from two medoids,
    # and a medoid that duplicates an earlier one owns no point
    rng = np.random.default_rng(12)
    for n in (6, 12, 25, 40):
        points = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        d = DistanceMatrix(n, "dup", 1, "const:1.0", pdist(points))
        for k in (1, 2, 3, 5, 9):
            if k <= n:
                assert_same_as_reference(d, k)


@pytest.mark.parametrize("kind", ["ties", "rounded"])
def test_kmedoids_bit_identical_when_a_pair_sweep_spans_blocks(kind):
    n, k = 60, 3
    # the first block of first indices stops short of the last one
    assert graph_select._BLOCK_ENTRIES // ((n - k - 1) * n) < n - k - 1
    assert math.comb(k, 2) * math.comb(n - k, 2) <= 200_000
    assert_same_as_reference(seeded_dm(np.random.default_rng(13), n, kind), k)


@pytest.mark.parametrize("kind", ["euclid", "ties", "rounded"])
def test_kmedoids_bit_identical_with_tiny_blocks(kind, monkeypatch):
    # blocks of 64 entries: BUILD and single swaps take a few rows per
    # block, and every pair sweep runs one first index per block
    monkeypatch.setattr(graph_select, "_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(14)
    for _ in range(12):
        n = int(rng.integers(4, 22))
        k = int(rng.integers(1, min(n, 5) + 1))
        assert_same_as_reference(seeded_dm(rng, n, kind), k)


def test_kmedoids_pair_sweep_memory_stays_bounded():
    # C(2, 2) * C(598, 2) = 178,503 pairs: the pair sweep runs.  Scoring them
    # all at once would trace ~1.6 GiB; the selection is the one the
    # per-first-index loop returned
    n, k = 600, 2
    assert math.comb(k, 2) * math.comb(n - k, 2) <= 200_000
    d = DistanceMatrix(n, "euclid", 1, "const:1.0",
                       pdist(np.random.default_rng(600).standard_normal((n, 2))))
    tracemalloc.start()
    try:
        trace = []
        sel = kmedoids(d, k, trace=trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
    assert (sel.indices, sel.tau) == ([140, 365], [295, 305])
    assert sel.objective == 1.0255307202062374 and len(trace) == 6


@pytest.mark.parametrize("kind", ["zero", "duplicates"])
def test_kmedoids_single_swap_rescore_memory_stays_bounded(kind):
    # objective 0 (all distances 0, or 600 points on 9 grid sites and 20
    # medoids): every estimate meets the bound, so all 11,600 single swaps
    # are rescored; scoring them at once traced ~8.9 MiB beside the 2.7 MiB
    # dense matrix, in blocks ~4.1 MiB
    n, k = 600, 20
    points = np.random.default_rng(600).integers(0, 3, (n, 2)).astype(np.float64)
    vals = np.zeros(n * (n - 1) // 2) if kind == "zero" else pdist(points, "cityblock")
    d = DistanceMatrix(n, kind, 1, "const:1.0", vals)
    tracemalloc.start()
    try:
        trace = []
        sel = kmedoids(d, k, trace=trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
    assert sel.indices == list(range(k)) and trace == [0.0]
    assert_same_as_reference(d, k)


def test_kmedoids_single_swap_rescore_keeps_a_later_blocks_winner(monkeypatch):
    # distances in {0.1, 0.2, 0.3, 0.7}: swaps that tie on the estimate can
    # differ in the last bits of their exact means, and with one-row blocks
    # the first exact minimum is often rescored in a later block
    monkeypatch.setattr(graph_select, "_BLOCK_ENTRIES", 1)
    for seed in range(10, 30):
        vals = np.random.default_rng(seed).choice([0.1, 0.2, 0.3, 0.7], size=190)
        assert_same_as_reference(DistanceMatrix(20, "decimals", 1, "const:1.0", vals), 4)


def cloud_dm(rng, n, kind):
    """Points in the unit square, or around 3-8 centres in a 10 x 10 square."""
    if kind == "uniform":
        points = rng.random((n, 2))
    else:
        centres = 10 * rng.random((int(rng.integers(3, 9)), 2))
        points = centres[rng.integers(0, len(centres), n)] + 0.3 * rng.standard_normal((n, 2))
    return DistanceMatrix(n, kind, 1, "const:1.0", pdist(points))


def pair_sweep_paths(monkeypatch):
    """Per pair-sweep ``outs``: the pairs scored exactly and all pairs, or
    None for the dense scan."""
    paths = []
    survivors = graph_select._pair_survivors

    def spy(rows, best_obj):
        got = survivors(rows, best_obj)
        m = len(rows)
        paths.append(None if got is None else (len(got[0]), math.comb(m, 2)))
        return got

    monkeypatch.setattr(graph_select, "_pair_survivors", spy)
    return paths


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
def test_kmedoids_bit_identical_when_pair_sweeps_score_survivors(kind, monkeypatch):
    paths = pair_sweep_paths(monkeypatch)
    rng = np.random.default_rng(["uniform", "clustered"].index(kind) + 40)
    for _ in range(4):
        n, k = int(rng.integers(40, 81)), int(rng.integers(3, 9))
        assert_same_as_reference(cloud_dm(rng, n, kind), k)
    gathered = [p for p in paths if p is not None]
    assert sum(scored for scored, _ in gathered) < sum(pairs for _, pairs in gathered) / 4


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
def test_kmedoids_bit_identical_when_pair_sweeps_are_dense(kind, monkeypatch):
    # k = 2: no medoid remains, so the bound rules out almost nothing
    paths = pair_sweep_paths(monkeypatch)
    rng = np.random.default_rng(["uniform", "clustered"].index(kind) + 42)
    for n in (30, 45, 60):
        assert_same_as_reference(cloud_dm(rng, n, kind), 2)
    assert paths and set(paths) == {None}


def test_kmedoids_bit_identical_when_many_pairs_tie_the_best(monkeypatch):
    # integer distances in 0..3: many pairs equal the running best, and a
    # tie never replaces it
    paths = pair_sweep_paths(monkeypatch)
    rng = np.random.default_rng(44)
    for _ in range(6):
        n, k = int(rng.integers(40, 61)), int(rng.integers(3, 7))
        assert_same_as_reference(seeded_dm(rng, n, "ties"), k)
    assert None in paths and any(p is not None for p in paths)


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
def test_kmedoids_bit_identical_when_survivors_span_chunks(kind, monkeypatch):
    # blocks of 64 entries: every chunk of survivors holds one pair
    monkeypatch.setattr(graph_select, "_BLOCK_ENTRIES", 64)
    paths = pair_sweep_paths(monkeypatch)
    rng = np.random.default_rng(["uniform", "clustered"].index(kind) + 45)
    for _ in range(3):
        n, k = int(rng.integers(40, 61)), int(rng.integers(3, 6))
        assert_same_as_reference(cloud_dm(rng, n, kind), k)
    assert any(p is not None and p[0] > 1 for p in paths)


def test_kmedoids_pair_sweep_scores_few_pairs_exactly(monkeypatch):
    # the n = 60, k = 5 geometry of the medoids benchmark: uniform points
    paths = pair_sweep_paths(monkeypatch)
    for idx in range(1, 5):
        points = np.random.default_rng([20250216, idx]).random((60, 2))
        kmedoids(DistanceMatrix(60, "tmd", 3, "const:1.0", pdist(points)), 5)
    assert paths and None not in paths
    assert sum(scored for scored, _ in paths) < 0.15 * sum(pairs for _, pairs in paths)


def test_kmedoids_pair_bound_survives_an_overflowing_mean():
    # row sums stay finite, but the sum of the C_i overflows: every pair survives
    n = 4
    vals = np.full(n * (n - 1) // 2, 5.9e307)
    vals[0] = 5.0e307
    d = DistanceMatrix(n, "big", 1, "const:1.0", vals)
    rows = d.full()[[1, 2]]
    assert graph_select._pair_survivors(rows, 0.0) is None
    assert_same_as_reference(d, 2)


def test_kmedoids_rejects_non_finite_distances():
    for bad, k in itertools.product((np.nan, np.inf), (2, 4)):  # k = n searches nothing
        vals = np.ones(6)
        vals[2] = bad
        with pytest.raises(DatasetError, match="non-finite"):
            kmedoids(DistanceMatrix(4, "test", 1, "const:1.0", vals), k)


@pytest.mark.parametrize("values, match", [
    ([1.0, np.nan, 2.0], "non-finite"), ([1.0, 2.0, np.inf], "non-finite"),
    ([1.0, 2.0], r"expected 3 condensed entries for n=3, got shape \(2,\)"),
], ids=["nan", "inf", "short"])
def test_distance_matrix_refuses_bad_values_when_built(values, match):
    with pytest.raises(DatasetError, match=match):
        DistanceMatrix(3, "test", 1, "const:1.0", np.array(values))


@pytest.mark.parametrize("n", [2.0, True, -1], ids=["float", "bool", "negative"])
def test_distance_matrix_refuses_an_n_that_is_no_count(n):
    # -1 would pass the length check: -1 * -2 // 2 is one entry
    with pytest.raises(DatasetError, match=rf"n must be an integer >= 0, got {n!r}"):
        DistanceMatrix(n, "tmd", 1, "", [1.0])


def test_distance_matrix_is_frozen_after_its_check():
    vals = np.ones(6)
    d = DistanceMatrix(np.int64(4), "test", 1, "const:1.0", vals)
    assert type(d.n) is int
    # the stored values are a copy: the caller's array stays writable, and
    # writing into it does not reach the checked matrix
    vals[2] = np.nan
    assert vals.flags.writeable and not np.shares_memory(vals, d.values)
    # the write that made nearest_medoid(d, [0, 3]) assign graph 0 to medoid
    # 3 at distance NaN now fails where it is made
    with pytest.raises(ValueError, match="read-only"):
        d.values[2] = np.nan
    owners, dists = nearest_medoid(d, [0, 3])
    assert (owners.tolist(), dists.tolist()) == ([0, 0, 0, 3], [0.0, 1.0, 1.0, 0.0])
    for name, value in (("values", vals), ("n", 5), ("metric", "tmd")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, value)


def test_distance_matrix_of_no_graphs_is_empty():
    d = DistanceMatrix(0, "tmd", 1, "", [])
    # squareform alone would make a 1 x 1 matrix of an empty condensed one
    assert d.full().shape == (0, 0)


def test_distance_matrix_compares_and_hashes_by_identity():
    # an array field makes field-wise == ambiguous, and unhashable
    a = DistanceMatrix(3, "test", 1, "", [1.0, 2.0, 3.0])
    twin = DistanceMatrix(3, "test", 1, "", [1.0, 2.0, 3.0])
    assert a == a
    assert (a == twin) is False
    assert len({a, twin}) == 2


def test_kmedoids_with_k_n_counts_duplicates_by_the_tie_rule():
    # points at 0, 0, 1, 3: graphs 0 and 1 are duplicates, so graph 1's
    # nearest medoid is 0 and medoid 1 owns nothing
    pos = np.array([0.0, 0.0, 1.0, 3.0])
    d = DistanceMatrix(4, "test", 1, "const:1.0", pdist(pos[:, None]))
    trace = []
    sel = kmedoids(d, 4, trace=trace)
    assert (sel.indices, sel.tau, sel.objective, trace) == ([0, 1, 2, 3], [2, 0, 1, 1], 0.0, [0.0])
    owners, _ = nearest_medoid(d, range(4))
    assert np.bincount(owners, minlength=4).tolist() == sel.tau
    assert random_selection(4, 4, seed=0, d=d).tau == sel.tau
    assert sel == reference_kmedoids(d, 4)


def test_brute_force_medoids_lexicographic_tie():
    # all pairwise distances equal: every k-set ties, the first wins
    d = DistanceMatrix(4, "test", 1, "const:1.0", np.ones(6))
    assert brute_force_medoids(d, 2).indices == [0, 1]


def test_selection_json_round_trip():
    # the record holds what it measures; the command line adds its labels
    assert [f.name for f in dataclasses.fields(Selection)] == ["indices", "tau", "objective"]
    rng = np.random.default_rng(1)
    d = random_dm(rng, 6)
    sel = kmedoids(d, 2)
    payload = json.loads(sel.to_json())
    assert payload == {"k": 2, "indices": sel.indices, "tau": sel.tau,
                       "objective": sel.objective}
    assert Selection(payload["indices"], payload["tau"], payload["objective"]) == sel


def test_random_selection_with_and_without_distances():
    rng = np.random.default_rng(2)
    d = random_dm(rng, 7)
    sel = random_selection(7, 3, seed=5, d=d)
    assert sel.indices == sorted(sel.indices)
    assert sel.objective == nearest_medoid(d, sel.indices)[1].mean()
    assert random_selection(7, 3, seed=5, d=d).indices == sel.indices
    bare = random_selection(7, 3, seed=5)
    assert bare.objective is None
    assert sum(bare.tau) == 7
    with pytest.raises(ConfigError):
        random_selection(7, 0, seed=1)
    with pytest.raises(ConfigError, match="^distance matrix is over 7 items, not 6$"):
        random_selection(6, 3, seed=5, d=d)


@pytest.mark.parametrize("k", [2.5, True, "2", None])
def test_a_medoid_count_that_is_not_an_integer_is_refused(k):
    # 2.5 once raised a bare TypeError, and True ran as k = 1
    d = random_dm(np.random.default_rng(3), 5)
    message = rf"^k must be an integer, got {re.escape(repr(k))}$"
    with pytest.raises(ConfigError, match=message):
        kmedoids(d, k)
    with pytest.raises(ConfigError, match=message):
        random_selection(5, k, 0)
    with pytest.raises(ConfigError, match=message):
        random_selection(5, k, 0, d=d)


def test_a_numpy_medoid_count_is_an_integer():
    d = random_dm(np.random.default_rng(3), 5)
    assert kmedoids(d, np.int64(2)) == kmedoids(d, 2)
    assert random_selection(5, np.int64(2), 0, d=d) == random_selection(5, 2, 0, d=d)
    with pytest.raises(ConfigError, match=r"^k must be in 1\.\.5, got 6$"):
        kmedoids(d, np.int64(6))


def test_feature_distance_matrix_hand_checked():
    a = Graph(2, [(0, 1)], np.array([[0.0, 0.0], [2.0, 0.0]]))
    b = Graph(1, [], np.array([[4.0, 3.0]]))
    ds = make_dataset([a, b])
    dm = feature_distance_matrix(ds, cfg(2))
    # means are (1,0) and (4,3): euclidean distance 3-4-5 triangle
    assert dm.value(0, 1) == pytest.approx(math.hypot(3.0, 3.0))
    assert dm.metric == "feature"


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_feature_distance_matrix_bit_identical_to_pair_loop(norm):
    rng = np.random.default_rng(11)
    for p in range(1, 34):
        n = int(rng.integers(1, 14))
        graphs = [random_graph(rng, n_max=6, feature_dim=p) for _ in range(n)]
        if p % 4 == 0:  # an empty graph keeps a zero mean row
            graphs.append(Graph(0, [], np.zeros((0, p))))
        ds = make_dataset(graphs)
        got = feature_distance_matrix(ds, cfg(2, norm=norm))
        want = reference_feature_distance_matrix(ds, cfg(2, norm=norm))
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.n, got.metric, got.depth, got.weight_preset) == \
            (want.n, want.metric, want.depth, want.weight_preset)


def _wl_pair(ga, gb, iterations):
    return wl_pseudometric_matrix(make_dataset([ga, gb]), iterations).value(0, 1)


def test_wl_counterexample_distance_zero():
    g1, g2 = wl_counterexample_pair()
    assert _wl_pair(g1, g2, 3) == 0.0


def test_wl_separates_structures():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)], np.ones((4, 1)))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)], np.ones((4, 1)))
    assert _wl_pair(path, star, 2) > 0.1
    assert _wl_pair(path, path, 3) == 0.0


def test_wl_distance_rejects_graphs_of_different_widths():
    one = Graph(2, [(0, 1)], np.ones((2, 1)))
    two = Graph(2, [(0, 1)], np.ones((2, 2)))
    with pytest.raises(DatasetError, match=r"feature dimension: \[1, 2\]"):
        _wl_pair(one, two, 1)


def test_wl_histogram_refinement_counts():
    path = Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    ds = make_dataset([path])
    rounds = wl_histograms(ds, 2)[0]
    assert len(rounds) == 3  # round 0 plus two refinements
    assert sum(rounds[0].values()) == 3
    # after one round the middle node (degree 2) separates from the ends
    assert sorted(rounds[1].values()) == [1, 2]


def test_wl_matrix_bit_identical_to_kernel_formula():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 15, 40):
        ds = make_dataset([random_graph(rng, n_max=9, n_min=0) for _ in range(n)])
        for iterations in range(5):
            got = wl_pseudometric_matrix(ds, iterations)
            want = reference_wl_pseudometric_matrix(ds, iterations)
            assert got.values.tobytes() == want.values.tobytes()


def test_wl_matrix_is_symmetric_pseudometric():
    rng = np.random.default_rng(3)
    ds = make_dataset([random_graph(rng, n_max=6) for _ in range(5)])
    dm = wl_pseudometric_matrix(ds, iterations=3)
    full = dm.full()
    assert np.array_equal(full, full.T)
    assert (full >= 0).all()
    assert dm.metric == "wl"
    with pytest.raises(ConfigError, match="iterations must be >= 0, got -1"):
        wl_pseudometric_matrix(ds, iterations=-1)


@pytest.mark.parametrize("iterations", [True, 1.0, 2.5, "2", None])
def test_wl_matrix_refuses_iterations_that_are_not_an_integer(iterations):
    # True ran one round and stamped depth=True on the matrix
    ds = make_dataset([Graph(2, [(0, 1)], np.ones((2, 1))), Graph(1, [], np.ones((1, 1)))])
    with pytest.raises(ConfigError, match=f"^iterations must be an integer, got "
                                          f"{re.escape(repr(iterations))}$"):
        wl_pseudometric_matrix(ds, iterations)
    assert wl_pseudometric_matrix(ds, np.int64(1)).depth == 1
