import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treesample.oracles import ScaleLimitError, brute_force_matching, matching_value
from treesample.tmd import _solve_lsap


def test_worked_examples():
    r = brute_force_matching(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert (r.total_cost, r.assignment) == (2.0, (0, 1))
    r = brute_force_matching(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (r.total_cost, r.assignment) == (2.0, (1, 0))


def test_all_zero_ties_resolve_to_identity():
    r = brute_force_matching(np.zeros((3, 3)))
    assert r.total_cost == 0.0
    assert r.assignment == (0, 1, 2)


def test_empty_matrix():
    r = brute_force_matching(np.zeros((0, 0)))
    assert (r.total_cost, r.assignment) == (0.0, ())
    assert matching_value(np.zeros((0, 0))) == 0.0


def test_rejects_nonsquare_and_nonfinite():
    for solve in (brute_force_matching, matching_value):
        with pytest.raises(ValueError, match="square"):
            solve(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[np.nan, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[np.inf]]))


def test_brute_force_size_limit():
    with pytest.raises(ScaleLimitError):
        brute_force_matching(np.zeros((10, 10)))


def test_matches_brute_on_random_continuous():
    rng = np.random.default_rng(11)
    for _ in range(120):
        q = int(rng.integers(1, 8))
        c = rng.uniform(0.0, 10.0, size=(q, q))
        slow = brute_force_matching(c)
        assert matching_value(c) == slow.total_cost
        assert _solve_lsap(c[None], q)[0] == slow.total_cost
        assert math.fsum(c[np.arange(q), slow.assignment]) == slow.total_cost


def test_matches_brute_on_tied_integer_matrices():
    # integer entries make all sums exact, so ties are genuine and frequent
    rng = np.random.default_rng(12)
    for _ in range(120):
        q = int(rng.integers(2, 8))
        c = rng.integers(0, 4, size=(q, q)).astype(float)
        slow = brute_force_matching(c)
        assert matching_value(c) == slow.total_cost
        assert _solve_lsap(c[None], q)[0] == slow.total_cost
        # ties go to the lexicographically first optimal assignment
        perms = itertools.permutations(range(q))
        first = next(p for p in perms if math.fsum(c[np.arange(q), p]) == slow.total_cost)
        assert slow.assignment == first


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_assignment_is_a_permutation(q, seed):
    c = np.random.default_rng(seed).uniform(0, 5, size=(q, q))
    r = brute_force_matching(c)
    assert sorted(r.assignment) == list(range(q))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_total_cost_invariant_under_row_permutation(q, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 5, size=(q, q))
    perm = rng.permutation(q)
    assert brute_force_matching(c).total_cost == brute_force_matching(c[perm]).total_cost
    assert matching_value(c) == matching_value(c[perm])


def test_large_matrix_against_value_only_path():
    rng = np.random.default_rng(5)
    c = rng.uniform(0, 1, size=(40, 40))
    # too wide to enumerate: both solvers against each other, and the
    # optimum at most every other assignment tried
    value = matching_value(c)
    assert value == _solve_lsap(c[None], 40)[0]
    rows = np.arange(40)
    for _ in range(200):
        assert value <= math.fsum(c[rows, rng.permutation(40)])
