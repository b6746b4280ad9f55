"""Min-cost perfect matching values of square cost matrices.

The matching value used throughout is the plain sum of matched entries (the
minimum over permutations), with no normalization factor.  Totals are
recomputed with ``math.fsum`` so that any two truly optimal assignments
report bit-identical costs, which keeps distances reproducible across
argument orders and node relabelings.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

_perm_cache: dict[int, np.ndarray] = {}


def _check_square(cost: np.ndarray) -> np.ndarray:
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if c.size and not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")
    return c


def matching_value(cost: np.ndarray) -> float:
    """Minimum total cost over perfect matchings (value only, no tie-break work)."""
    c = _check_square(cost)
    q = c.shape[0]
    if q == 0:
        return 0.0
    rows, cols = linear_sum_assignment(c)
    return math.fsum(c[rows, cols])


def _permutations(q: int) -> np.ndarray:
    if q not in _perm_cache:
        _perm_cache[q] = np.array(list(itertools.permutations(range(q))), dtype=np.int64)
    return _perm_cache[q]
