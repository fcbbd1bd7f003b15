"""Classic greedy t-spanner (Althöfer et al.) restricted to the UDG.

Edges are examined in increasing length; an edge is kept iff the current
partial graph does not already connect its endpoints within ``t`` times
its length. The result is a t-spanner with strong sparseness guarantees —
the natural receiver-centric counterpart to LISE (which orders edges by
sender-centric coverage instead): keeping *short* edges first directly
keeps radii, and hence disks, small.

:func:`spanner_edges` is the greedy loop, shared with LISE, which only
orders the edges differently; length ties go to the smaller ``(lo, hi)``.
Each test is a Dijkstra search bounded by ``t·|uv|``: it queues no label
above the bound and stops at the first label of the other endpoint within
it. Every label it sets is one the full search sets, so the verdict is the
full search's. An unreachable endpoint is not spanned, so ``t = inf``
yields the spanning forest. O(m · B log B) for B = the largest ball.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.graphs.mst import inverse_permutation
from repro.model.topology import Topology
from repro.topologies.base import register


def _spanned(adj: list, source: int, target: int, bound: float) -> bool:
    """True iff ``adj`` joins ``source`` to ``target`` within ``bound``."""
    dist, heap = {source: 0.0}, [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in adj[x]:
            nd = d + w
            if nd > bound or nd >= dist.get(y, math.inf):
                continue
            if y == target:
                return True
            dist[y] = nd
            heapq.heappush(heap, (nd, y))
    return False


def spanner_edges(udg: Topology, order: np.ndarray, t: float) -> np.ndarray:
    """Rows of ``udg.edges`` the greedy ``t``-spanner keeps, examined in ``order``.

    Edge ``k`` is kept iff the edges kept before it do not connect its
    endpoints within ``t * length * (1 + 1e-12)``.
    """
    if not t >= 1:
        raise ValueError("t must be >= 1")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(udg.n)]
    edges, lengths, keep = udg.edges.tolist(), udg.edge_lengths.tolist(), []
    for k in order.tolist():
        (u, v), length = edges[k], lengths[k]
        if not _spanned(adj, u, v, t * length * (1.0 + 1e-12)):
            adj[u].append((v, length))
            adj[v].append((u, length))
            keep.append(k)
    return udg.edges[np.sort(np.array(keep, dtype=np.int64))]


def greedy_spanner(udg: Topology, *, t: float = 2.0) -> Topology:
    order = inverse_permutation(udg._ranks)
    return Topology(udg.positions, spanner_edges(udg, order, t))


@register("gspan2")
def _greedy_spanner_2(udg: Topology) -> Topology:
    return greedy_spanner(udg, t=2.0)
