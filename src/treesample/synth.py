"""Seeded synthetic graph generators for tests, demos, and `verify` runs.

The clustered generator produces a fixed number of families whose graphs
share a per-family backbone (node count, wiring, feature direction and
magnitude) and differ only by small absolute feature noise; labels equal the
family id.  Distances within a family therefore stay far below distances
across families, so k-medoid selection with k = families lands one medoid
per family and every graph's nearest medoid shares its label.  That purity
is what makes the weighted-subsample loss guarantees checkable: the loss gap
bound is a Lipschitz argument in the predictions and needs matching labels
on both sides.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError, _require_int, _require_real, _seeded_rng
from .graphs import Dataset, Graph, make_dataset

_CLUSTER_DIM = 3  # feature width of clustered_dataset


def random_graph(rng: np.random.Generator, n: int, p: float,
                 feature_dim: int = 2, label=None) -> Graph:
    """One G(n, p) draw with standard normal features."""
    n = _require_int(n, "n", 0, None)
    p = _require_real(p, "p")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")
    drawn = rng.random(n * (n - 1) // 2) < p
    edges = list(itertools.compress(itertools.combinations(range(n), 2), drawn))
    feats = rng.standard_normal((n, _require_int(feature_dim, "feature_dim", 1, None)))
    return Graph(n, edges, feats, label=label)


def _family_backbone(f: int) -> tuple[int, list[tuple[int, int]]]:
    """Fixed wiring for family ``f``: a ring of ``6 + f`` nodes plus ``f``
    chords at stride ``2 + f``."""
    n = 6 + f
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    for j in range(f):
        a = (2 * j) % n
        b = (a + 2 + f) % n
        edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


def _family_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit feature direction with at least one sign flip (for dim >= 2), so
    relu layers see varied support across families instead of one cone."""
    u = rng.standard_normal(dim)
    u[np.abs(u) < 1e-3] = 1e-3
    if dim >= 2 and (np.all(u > 0) or np.all(u < 0)):
        u[int(np.argmin(np.abs(u)))] *= -1.0
    return u / np.linalg.norm(u)


def clustered_dataset(n_graphs: int = 40, families: int = 5,
                      seed: int = 0) -> Dataset:
    """Well-separated families of 3-d graphs; each graph's label is its
    family id.

    Family f fixes a backbone (ring of ``6 + f`` nodes plus ``f`` chords), a
    unit feature direction, and a feature magnitude ``2 (f + 1)``.  Members
    differ only by absolute noise of scale 0.03 on the node features, so the
    largest within-family distance sits well below the smallest cross-family
    distance at any positive depth weights.  ``seed`` is an integer >= 0.
    """
    families = _require_int(families, "families", 1, None)
    n_graphs = _require_int(n_graphs, "n_graphs", families, None)
    rng = _seeded_rng(seed)
    backbones = [_family_backbone(f) for f in range(families)]
    directions = [_family_direction(rng, _CLUSTER_DIM) for _ in range(families)]
    graphs = []
    for i in range(n_graphs):
        f = i % families
        n, edges = backbones[f]
        center = 2.0 * (f + 1) * directions[f]
        feats = center + 0.03 * rng.standard_normal((n, _CLUSTER_DIM))
        graphs.append(Graph(n, edges, feats, label=f))
    return make_dataset(graphs)


def synthetic_dataset(n_graphs: int, seed: int) -> Dataset:
    """Default generator behind ``verify --synthetic``; ``seed`` is an
    integer >= 0."""
    n_graphs = _require_int(n_graphs, "n_graphs", 1, None)
    return clustered_dataset(n_graphs=n_graphs, families=min(5, n_graphs), seed=seed)


def random_pairs(ds: Dataset, count: int, seed: int) -> list[tuple[int, int]]:
    """Seeded index pairs into ``ds`` (with replacement, distinct within a
    pair); ``seed`` is an integer >= 0."""
    if len(ds) < 2:
        raise ConfigError("need at least two graphs to form pairs")
    count = _require_int(count, "count", 1, None)
    rng = _seeded_rng(seed)
    return [tuple(map(int, rng.choice(len(ds), size=2, replace=False)))
            for _ in range(count)]


def wl_counterexample_pair() -> tuple[Graph, Graph]:
    """Two 5-node path graphs telling structural refinement apart from
    feature-aware distances: identical edges, features ``1..5`` versus
    ``10..50``.

    Label refinement sees the same structure (distance 0); any feature-aware
    readout separates them.
    """
    edges = [(i, i + 1) for i in range(4)]
    return tuple(Graph(5, edges, [[scale * i] for i in range(1, 6)]) for scale in (1.0, 10.0))
