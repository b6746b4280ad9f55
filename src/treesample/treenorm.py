"""Fast tree norms.

The tree norm of a graph is its tree mover's distance to the empty graph:
every computation tree is matched against padding, so the distance collapses
to a weighted sum of feature norms over tree levels.  That sum is computable
with L - 1 sparse mat-vec passes over the edge list:

    x_v = ||f_v||,  z0 = x,  z_l = A z_{l-1},
    b = z0 + sum_l (w(L-1) w(L-2) ... w(L-l)) z_l,   value = ||b||_1.

The empty product (L = 1) is 1, so a depth-1 norm is just ||x||_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TmdConfig
from .errors import NumericalOverflowError
from .graphs import Graph


def feature_norms(features: np.ndarray, norm: str) -> np.ndarray:
    """Per-row feature norms under the configured vector norm."""
    if norm == "l1":
        return np.abs(features).sum(axis=1)
    with np.errstate(over="ignore"):
        out = np.sqrt((features * features).sum(axis=1))
        # squares past ~1e154 overflow where the norm may fit; hypot scales
        if np.isinf(out).any():
            big = np.isinf(out) & np.isfinite(features).all(axis=1)
            out[big] = np.hypot.reduce(features[big], axis=1)
    return out


@dataclass(frozen=True)
class TreeNormReport:
    """Tree norm plus the l1 mass of each unweighted walk level (diagnostics)."""

    value: float
    level_mass: tuple[float, ...]


def tree_norm_report(g: Graph, cfg: TmdConfig) -> TreeNormReport:
    """Tree norm of ``g`` with per-level diagnostics."""
    n = g.node_count
    if n == 0:
        return TreeNormReport(0.0, tuple(0.0 for _ in range(cfg.depth)))
    eu, ev = g.edge_arrays()
    # overflow is caught by the checks below (a level mass past the float
    # range reads inf), so numpy's overflow warnings would only add noise
    with np.errstate(over="ignore"):
        x = feature_norms(g.features, cfg.feature_norm)
        z = x.copy()
        b = x.copy()
        mass = [float(z.sum())]
        coef = 1.0
        for level in range(1, cfg.depth):
            z = (np.bincount(eu, weights=z[ev], minlength=n)
                 + np.bincount(ev, weights=z[eu], minlength=n))
            coef *= cfg.level_weight(cfg.depth - level)
            b += coef * z
            mass.append(float(z.sum()))
    if not np.isfinite(b).all():
        raise NumericalOverflowError(
            f"tree norm overflowed at depth {cfg.depth} (n={n}, m={g.edge_count}); "
            "reduce the depth or the level weights")
    # entries are non-negative, so the l1 norm is a plain sum; fsum makes the
    # value independent of node ordering among mathematically equal layouts
    try:
        value = math.fsum(b)
    except OverflowError as exc:  # every entry is finite but the sum is not
        raise NumericalOverflowError(
            f"tree norm sum overflowed at depth {cfg.depth} (n={n}, "
            f"m={g.edge_count}); reduce the depth, the level weights or the "
            "feature scale") from exc
    return TreeNormReport(value, tuple(mass))


def tree_norm(g: Graph, cfg: TmdConfig) -> float:
    """Tree norm of ``g`` (distance to the empty graph)."""
    return tree_norm_report(g, cfg).value


def tree_norm_batch(graphs, cfg: TmdConfig) -> np.ndarray:
    """Tree norms for a sequence of graphs."""
    return np.array([tree_norm(g, cfg) for g in graphs], dtype=np.float64)
