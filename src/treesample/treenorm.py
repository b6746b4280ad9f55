"""Fast tree norms.

The tree norm of a graph is its tree mover's distance to the empty graph:
every computation tree is matched against padding, so the distance collapses
to a weighted sum of feature norms over tree levels.  That sum is computable
with L - 1 sparse mat-vec passes over the edge list:

    x_v = ||f_v||,  z0 = x,  z_l = A z_{l-1},
    b = z0 + sum_l (w(L-1) w(L-2) ... w(L-l)) z_l,   value = ||b||_1.

The empty product (L = 1) is 1, so a depth-1 norm is just ||x||_1.

:func:`subset_tree_norm_sweep` scores many node subsets of one graph under
several configs with the same recursion, one bin per (subset, node), without
building induced subgraphs.
"""

from __future__ import annotations

import itertools

import numpy as np

from .config import _NORMS, TmdConfig
from .errors import _require_choice, exact_sums, require_finite
from .graphs import Graph, _node_array

# entries (candidates x (nodes + edges)) per masked pass of subset_tree_norm_sweep
_SUBSET_BLOCK = 1 << 16


def feature_norms(features: np.ndarray, norm: str) -> np.ndarray:
    """Per-row feature norms under the vector norm ``norm``, ``"l1"`` or ``"l2"``."""
    if _require_choice(norm, "norm", _NORMS) == "l1":
        return np.abs(features).sum(axis=1)
    with np.errstate(over="ignore"):
        out = np.sqrt((features * features).sum(axis=1))
        # squares past ~1e154 overflow where the norm may fit; hypot scales
        if np.isinf(out).any():
            big = np.isinf(out) & np.isfinite(features).all(axis=1)
            out[big] = np.hypot.reduce(features[big], axis=1)
    return out


def _level_sums(x: np.ndarray, dst: np.ndarray, src: np.ndarray,
                cfgs) -> list[np.ndarray]:
    """The recursion above on flat node values ``x``: ``b`` for each config
    in ``cfgs``, all of ``x``'s feature norm.

    Edge i joins bins ``dst[i]`` and ``src[i]``.  Each bin receives its
    neighbours' values in edge order, so a bin whose edges are a subsequence
    of another graph's edges sums the same addends in the same order, and
    (higher neighbours) + (lower neighbours), the order the stored tree norms
    have (``gnn._bank_forward`` keeps one running sum instead).  One walk to
    the deepest config gives each ``b`` the addends of a walk of its own, as
    ``z_l`` does not depend on the weights.
    """
    size = x.shape[0]
    z, bs, coefs = x, [x.copy() for _ in cfgs], [1.0] * len(cfgs)
    for level in range(1, max(cfg.depth for cfg in cfgs)):
        z = (np.bincount(dst, weights=z[src], minlength=size)
             + np.bincount(src, weights=z[dst], minlength=size))
        for i, cfg in enumerate(cfgs):
            if level < cfg.depth:
                coefs[i] *= cfg.level_weight(cfg.depth - level)
                bs[i] += coefs[i] * z
    return bs


def _run_sums(b: np.ndarray, ends, cfg: TmdConfig, what: str) -> np.ndarray:
    """Exact sum of the non-negative level sums ``b`` over each run of
    entries that ends at an index in ``ends`` (one run per graph)."""
    what = f"a tree norm at depth {cfg.depth} ({what})"
    # entries are non-negative, so the l1 norm is a plain sum; fsum makes the
    # value independent of node ordering among mathematically equal layouts
    flat = require_finite(b, what).tolist()
    return exact_sums((flat[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)), what)


def tree_norm(g: Graph, cfg: TmdConfig) -> float:
    """Tree norm of ``g`` (distance to the empty graph)."""
    n = g.node_count
    eu, ev = g.edge_arrays()
    # overflow is caught by the checks in _run_sums (a level sum past the
    # float range reads inf, a weight product past it times an empty level
    # NaN), so numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        b, = _level_sums(feature_norms(g.features, cfg.feature_norm), eu, ev, [cfg])
    return float(_run_sums(b, [n], cfg, f"n={n}, m={g.edge_count}")[0])


def subset_tree_norm_sweep(g: Graph, subsets, cfgs) -> np.ndarray:
    """Entry (i, c) is ``tree_norm(induced_subgraph(g, subsets[c]), cfgs[i])``
    bit for bit; ``subsets`` is an iterable of node-index sequences, and
    duplicates inside one are ignored.

    No subgraph is built: candidates run the recursion together on the
    parent's edge arrays, every edge that leaves a candidate dropped from its
    bins by index, and configs of one feature norm share one walk.  Chunks
    of ``_SUBSET_BLOCK // (n + m)`` candidates keep ``chunk * (n + m)``
    within 65,536, so a pass peaks at about 45 bytes per entry, plus 8 per
    further config.  Nodes are checked by :func:`~treesample.graphs._node_array`;
    a non-finite norm raises :class:`NumericalOverflowError`.
    """
    subsets = iter(subsets)
    chunk = max(1, _SUBSET_BLOCK // max(1, g.node_count + g.edge_count))
    out = [np.empty((len(cfgs), 0))]
    while True:
        block = [tuple(s) for s in itertools.islice(subsets, chunk)]
        if not block:
            return np.concatenate(out, axis=1)
        out.append(_score_block(g, block, cfgs))


def _score_block(g: Graph, block: list, cfgs) -> np.ndarray:
    n, c = g.node_count, len(block)
    lengths = [len(s) for s in block]
    nodes = _node_array(itertools.chain.from_iterable(block), n, "subset_tree_norm_sweep")
    keep = np.zeros((c, n), dtype=bool)
    keep[np.repeat(np.arange(c), lengths), nodes] = True
    eu, ev = g.edge_arrays()
    # one bin per (candidate, node); an edge stays only where both ends do
    cand, edge = np.nonzero(keep[:, eu] & keep[:, ev])
    dst, src = cand * n + eu[edge], cand * n + ev[edge]
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    rows = [None] * len(cfgs)
    for norm in dict.fromkeys(cfg.feature_norm for cfg in cfgs):
        group = [i for i, cfg in enumerate(cfgs) if cfg.feature_norm == norm]
        with np.errstate(over="ignore", invalid="ignore"):  # as in tree_norm
            bs = _level_sums(np.tile(feature_norms(g.features, norm), c), dst, src,
                             [cfgs[i] for i in group])
        for i, b in zip(group, bs):  # kept entries, candidate by candidate
            rows[i] = _run_sums(b.reshape(c, n)[keep], ends, cfgs[i],
                                f"node subsets of n={n}, m={g.edge_count}")
    return np.array(rows, dtype=np.float64).reshape(len(cfgs), c)
