"""Machine-speed probes for timing on a shared host.

On a host shared with other tenants the same command can take twice as long
from one minute to the next: a busy neighbour on the same physical core or a
lower clock slows every instruction, not only this process's waiting.  A
probe of fixed work, timed right before and right after each command, sees
the same slowdown.  The command's time multiplied by ``reference / probe``
(the probe's time on a quiet host over its time now) is the command's time at
reference speed, which is what the benchmark reports.

Each workload has a probe that repeats, in numpy and scipy only, the kind of
work its hot path does, because a slowdown hits a Python loop, a cache-heavy
gather and a small assignment solver by different amounts.  The probes never
call treesample: a change to the program must not change the yardstick.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np
from scipy.optimize import linear_sum_assignment

PROBE_REPEATS = 3


def _sparse_adjacency(rng, n, degree):
    adj = [set() for _ in range(n)]
    for _ in range(n * degree // 2):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [np.array(sorted(a), dtype=np.int64) for a in adj]


class _TmdProbe:
    """Padded small assignment problems over neighbour blocks (``dist``)."""

    def __init__(self, rng):
        self.nbrs_a = _sparse_adjacency(rng, 12, 4)
        self.nbrs_b = _sparse_adjacency(rng, 12, 4)
        self.td = rng.random((12, 12))
        self.blank_a, self.blank_b = rng.random(12), rng.random(12)

    def __call__(self):
        total = 0.0
        for nu in self.nbrs_a:
            for nv in self.nbrs_b:
                ra, cb = nu.size, nv.size
                q = max(ra, cb)
                if q == 0:
                    continue
                c = np.zeros((q, q))
                c[:ra, :cb] = self.td[np.ix_(nu, nv)]
                c[:ra, cb:] = self.blank_a[nu][:, None]
                c[ra:, :cb] = self.blank_b[nv][None, :]
                rows, cols = linear_sum_assignment(c)
                total += float(c[rows, cols].sum())
        return total


class _MedoidsProbe:
    """Column gathers and row minima on a dense distance matrix (``medoids``)."""

    def __init__(self, rng):
        self.full = rng.random((400, 400))
        self.rest = [int(x) for x in rng.choice(400, size=14, replace=False)]

    def __call__(self):
        total = 0.0
        for inc in range(0, 400, 4):
            total += float(self.full[:, self.rest + [inc]].min(axis=1).mean())
        return total


class _NodesProbe:
    """Python breadth-first search, scatter-add passes and small dense layers
    (``nodes``)."""

    def __init__(self, rng):
        self.nbrs = _sparse_adjacency(rng, 60, 4)
        u = np.repeat(np.arange(60), [a.size for a in self.nbrs])
        v = np.concatenate(self.nbrs)
        self.eu, self.ev = u[u < v], v[u < v]
        self.features = rng.random((60, 3))
        self.weight = rng.standard_normal((3, 3))

    def __call__(self):
        total = 0.0
        for start in range(0, 60, 6):
            dist = np.full(60, -1, dtype=np.int64)
            dist[start] = 0
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u in self.nbrs[v]:
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        queue.append(int(u))
            total += float(dist.sum())
            z = self.features[:, 0].copy()
            for _ in range(2):
                z = (np.bincount(self.eu, weights=z[self.ev], minlength=60)
                     + np.bincount(self.ev, weights=z[self.eu], minlength=60))
            h = self.features
            for _ in range(2):
                agg = np.zeros_like(h)
                np.add.at(agg, self.eu, h[self.ev])
                np.add.at(agg, self.ev, h[self.eu])
                h = np.maximum((h + agg) @ self.weight, 0.0)
            total += float(z.sum()) + float(h.sum())
        return total


# probe kind -> (work, its duration in seconds on a quiet 2-vCPU Xeon host
# with Python 3.11, numpy 2.4 and scipy 1.17)
_PROBES = {"tmd": (_TmdProbe, 2.7e-3), "medoids": (_MedoidsProbe, 2.3e-3),
           "nodes": (_NodesProbe, 2.7e-3)}


class SpeedProbe:
    """Times one kind of fixed work; ``scale`` converts a duration measured
    now into seconds at the probe's reference speed."""

    def __init__(self, kind: str):
        factory, self.reference_s = _PROBES[kind]
        self.work = factory(np.random.default_rng(12345))

    def seconds(self) -> float:
        """Median duration of a few probe calls."""
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        return self.reference_s / ((before + after) / 2)
