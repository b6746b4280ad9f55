"""Fast tree norms.

The tree norm of a graph is its tree mover's distance to the empty graph:
every computation tree is matched against padding, so the distance collapses
to a weighted sum of feature norms over tree levels.  That sum is computable
with L - 1 sparse mat-vec passes over the edge list:

    x_v = ||f_v||,  z0 = x,  z_l = A z_{l-1},
    b = z0 + sum_l (w(L-1) w(L-2) ... w(L-l)) z_l,   value = ||b||_1.

The empty product (L = 1) is 1, so a depth-1 norm is just ||x||_1.

:func:`subset_tree_norms` scores many node subsets of one graph with the same
recursion, one bin per (subset, node), without building induced subgraphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import TmdConfig
from .errors import DatasetError, NumericalOverflowError
from .graphs import Graph

# entries (candidates x (nodes + edges)) per masked pass of subset_tree_norms
_SUBSET_BLOCK = 1 << 16


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


def _level_sums(x: np.ndarray, dst: np.ndarray, src: np.ndarray,
                cfg: TmdConfig, mass: list | None = None) -> np.ndarray:
    """The recursion above on flat node values ``x``: returns ``b``.

    Edge i joins bins ``dst[i]`` and ``src[i]``.  Each bin receives its
    neighbours' values in edge order, so a bin whose edges are a subsequence
    of another graph's edges sums the same addends in the same order.  The
    unweighted mass of every level is appended to ``mass`` when given.
    """
    size = x.shape[0]
    z = x.copy()
    b = x.copy()
    if mass is not None:
        mass.append(float(z.sum()))
    coef = 1.0
    for level in range(1, cfg.depth):
        z = (np.bincount(dst, weights=z[src], minlength=size)
             + np.bincount(src, weights=z[dst], minlength=size))
        coef *= cfg.level_weight(cfg.depth - level)
        b += coef * z
        if mass is not None:
            mass.append(float(z.sum()))
    return b


def _exact_sums(b: np.ndarray, ends, cfg: TmdConfig, what: str) -> list[float]:
    """Exact sum of the non-negative level sums ``b`` over each run of
    entries that ends at an index in ``ends`` (one run per graph)."""
    if not np.isfinite(b).all():
        raise NumericalOverflowError(
            f"tree norm overflowed at depth {cfg.depth} ({what}); "
            "reduce the depth or the level weights")
    # entries are non-negative, so the l1 norm is a plain sum; fsum makes the
    # value independent of node ordering among mathematically equal layouts
    flat = b.tolist()
    try:
        return [math.fsum(flat[lo:hi]) for lo, hi in zip([0, *ends[:-1]], ends)]
    except OverflowError as exc:  # every entry is finite but the sum is not
        raise NumericalOverflowError(
            f"tree norm sum overflowed at depth {cfg.depth} ({what}); reduce "
            "the depth, the level weights or the feature scale") from exc


def tree_norm_report(g: Graph, cfg: TmdConfig) -> TreeNormReport:
    """Tree norm of ``g`` with per-level diagnostics."""
    n = g.node_count
    if n == 0:
        return TreeNormReport(0.0, tuple(0.0 for _ in range(cfg.depth)))
    eu, ev = g.edge_arrays()
    mass = []
    # overflow is caught by the checks in _exact_sums (a level mass past the
    # float range reads inf), so numpy's overflow warnings would only add noise
    with np.errstate(over="ignore"):
        b = _level_sums(feature_norms(g.features, cfg.feature_norm), eu, ev,
                        cfg, mass)
    value, = _exact_sums(b, [n], cfg, f"n={n}, m={g.edge_count}")
    return TreeNormReport(value, tuple(mass))


def subset_tree_norms(g: Graph, subsets, cfg: TmdConfig) -> np.ndarray:
    """Tree norm of the induced subgraph of ``g`` on each node subset.

    ``subsets`` is an iterable of node-index sequences; duplicates inside a
    subset are ignored, as in :func:`~treesample.graphs.induced_subgraph`.
    Entry c equals ``tree_norm(induced_subgraph(g, subsets[c]), cfg)`` bit
    for bit, but no subgraph is built: candidates run the recursion together
    on the parent's edge arrays, with every edge that leaves a candidate
    dropped from that candidate's bins by index.  Candidates go through in
    chunks of ``_SUBSET_BLOCK // (n + m)``, so ``chunk * (n + m)`` stays
    within 65,536 and one pass peaks at about 45 bytes per entry (< 3 MB).

    A node outside ``0 .. n - 1`` raises :class:`DatasetError`; a non-finite
    norm raises :class:`NumericalOverflowError`.
    """
    subsets = iter(subsets)
    chunk = max(1, _SUBSET_BLOCK // max(1, g.node_count + g.edge_count))
    out = []
    while True:
        block = [tuple(s) for s in itertools.islice(subsets, chunk)]
        if not block:
            return np.array(out, dtype=np.float64)
        out.extend(_score_block(g, block, cfg))


def _score_block(g: Graph, block: list, cfg: TmdConfig) -> list[float]:
    n, c = g.node_count, len(block)
    lengths = [len(s) for s in block]
    try:
        nodes = np.fromiter(itertools.chain.from_iterable(block),
                            dtype=np.int64, count=sum(lengths))
    except OverflowError as exc:  # an index past the int64 range
        raise DatasetError(
            f"subset_tree_norms: a node index is outside 0..{n - 1}") from exc
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
        bad = int(nodes[(nodes < 0) | (nodes >= n)][0])
        raise DatasetError(
            f"subset_tree_norms: node {bad} outside 0..{n - 1}")
    keep = np.zeros((c, n), dtype=bool)
    keep[np.repeat(np.arange(c), lengths), nodes] = True
    eu, ev = g.edge_arrays()
    # one bin per (candidate, node); an edge stays only where both ends do
    cand, edge = np.nonzero(keep[:, eu] & keep[:, ev])
    with np.errstate(over="ignore"):  # as in tree_norm_report
        x = feature_norms(g.features, cfg.feature_norm)
        b = _level_sums(np.tile(x, c), cand * n + eu[edge],
                        cand * n + ev[edge], cfg).reshape(c, n)
    # kept entries, candidate by candidate and in node order
    return _exact_sums(b[keep], np.cumsum(keep.sum(axis=1)).tolist(), cfg,
                       f"node subsets of n={n}, m={g.edge_count}")


def tree_norm(g: Graph, cfg: TmdConfig) -> float:
    """Tree norm of ``g`` (distance to the empty graph)."""
    return tree_norm_report(g, cfg).value

