import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treesample import (ScaleLimitError, brute_force_matching, matching_value,
                        min_cost_matching)


def test_worked_examples():
    r = min_cost_matching(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert (r.total_cost, r.assignment) == (2.0, (0, 1))
    r = min_cost_matching(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (r.total_cost, r.assignment) == (2.0, (1, 0))


def test_all_zero_ties_resolve_to_identity():
    for solve in (min_cost_matching, brute_force_matching):
        r = solve(np.zeros((3, 3)))
        assert r.total_cost == 0.0
        assert r.assignment == (0, 1, 2)


def test_empty_matrix():
    assert min_cost_matching(np.zeros((0, 0))) == brute_force_matching(np.zeros((0, 0)))
    assert matching_value(np.zeros((0, 0))) == 0.0


def test_rejects_nonsquare_and_nonfinite():
    for solve in (min_cost_matching, matching_value):
        with pytest.raises(ValueError, match="square"):
            solve(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        brute_force_matching(np.array([[np.inf]]))


def test_brute_force_size_limit():
    with pytest.raises(ScaleLimitError):
        brute_force_matching(np.zeros((10, 10)))


def test_matches_brute_on_random_continuous():
    rng = np.random.default_rng(11)
    for _ in range(120):
        q = int(rng.integers(1, 8))
        c = rng.uniform(0.0, 10.0, size=(q, q))
        fast, slow = min_cost_matching(c), brute_force_matching(c)
        assert fast.total_cost == slow.total_cost
        assert fast.assignment == slow.assignment
        assert matching_value(c) == fast.total_cost


def test_matches_brute_on_tied_integer_matrices():
    # integer entries make all sums exact, so ties are genuine and frequent
    rng = np.random.default_rng(12)
    for _ in range(120):
        q = int(rng.integers(2, 8))
        c = rng.integers(0, 4, size=(q, q)).astype(float)
        fast, slow = min_cost_matching(c), brute_force_matching(c)
        assert fast.total_cost == slow.total_cost
        assert fast.assignment == slow.assignment


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_assignment_is_a_permutation(q, seed):
    c = np.random.default_rng(seed).uniform(0, 5, size=(q, q))
    r = min_cost_matching(c)
    assert sorted(r.assignment) == list(range(q))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_total_cost_invariant_under_row_permutation(q, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 5, size=(q, q))
    perm = rng.permutation(q)
    assert min_cost_matching(c).total_cost == min_cost_matching(c[perm]).total_cost


def test_large_matrix_against_value_only_path():
    rng = np.random.default_rng(5)
    c = rng.uniform(0, 1, size=(40, 40))
    r = min_cost_matching(c)
    assert r.total_cost == matching_value(c)
    assert sorted(r.assignment) == list(range(40))
