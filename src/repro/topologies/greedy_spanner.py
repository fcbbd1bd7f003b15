"""Classic greedy t-spanner (Althöfer et al.) restricted to the UDG.

Edges are examined in increasing length; an edge is kept iff the current
partial graph does not already connect its endpoints within ``t`` times
its length. The result is a t-spanner with strong sparseness guarantees —
the natural receiver-centric counterpart to LISE (which orders edges by
sender-centric coverage instead): keeping *short* edges first directly
keeps radii, and hence disks, small.

:func:`spanner_edges` is the greedy loop, shared with LISE, which only
orders the edges differently; length ties go to the smaller ``(lo, hi)``.
Edge ``uv`` is dropped iff some path of kept edges has a source-first
fold-sum ``g`` (the float sum of its lengths, added from ``u`` on) with
``g <= bound = t·|uv|·(1 + 1e-12)``. Floating addition is monotone, so
this verdict is a fact about the graph: it does not depend on the order in
which a search meets the paths. An unreachable endpoint is not spanned, so
``t = inf`` yields the spanning forest; a zero-length edge with ``t = inf``
has a NaN bound, which prunes nothing and spans any reachable endpoint.

Each test is an A* search goal-directed at ``v``: a label ``(g, y)`` is
keyed on ``f = g + h(y)`` with ``h(y) = hypot(p_y − p_v)`` and dropped
when ``f > cap = bound·(1 + MARGIN)``; a node is re-queued whenever its
``g`` improves, and ``v`` is accepted only on an exact ``g <= bound``. A
True verdict therefore names a real path within the bound. Conversely,
let ``u = y_0, …, y_k = v`` be a path with fold-sum ``G_k <= bound`` and
prefix fold-sums ``G_i``. By the triangle inequality on the exact
geometry of the stored points, ``|y_i v|`` is at most the exact length of
the path's tail. Each coordinate difference has relative error at most
ε = 2⁻⁵³ and ``hypot`` adds about one ulp, so ``h`` and every edge
length are within 3ε of exact; the fold-sum of k hops loses at most k·ε.
Hence ``f_i = fl(G_i + h(y_i)) <= G_k·(1 + (2k + 8)·ε)``, which stays
below ``cap`` for any path shorter than 10⁹ hops (no subnormal coordinate
differences assumed). By induction along the path the search then holds
a label ``g <= G_i`` at every ``y_i`` (monotone addition), and it meets
``v`` within the bound: every keep/drop verdict is the unpruned search's.
The heuristic only narrows the set of nodes the search labels.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from repro.graphs.mst import inverse_permutation
from repro.model.topology import Topology
from repro.topologies.base import register

#: Relative slack of the A* prune over the bound; it covers the rounding of
#: the heuristic and of the fold-sums (module docstring).
MARGIN = 2.0**-20


def _spanned(
    adj: list, xs: list, ys: list, source: int, target: int, bound: float
) -> bool:
    """True iff ``adj`` joins ``source`` to ``target`` within ``bound``
    (node coordinates ``xs``, ``ys``; A* search, module docstring)."""
    tx, ty, hypot = xs[target], ys[target], math.hypot
    cap = bound * (1.0 + MARGIN)
    dist, heap = {source: 0.0}, [(0.0, 0.0, source)]
    while heap:
        _, g, x = heappop(heap)
        if g > dist[x]:
            continue
        for y, w in adj[x]:
            nd = g + w
            if y == target:
                if nd > bound:
                    continue
                return True
            if nd >= dist.get(y, math.inf):
                continue
            f = nd + hypot(xs[y] - tx, ys[y] - ty)
            if f > cap:
                continue
            dist[y] = nd
            heappush(heap, (f, nd, y))
    return False


def spanner_edges(udg: Topology, order: np.ndarray, t: float) -> np.ndarray:
    """Rows of ``udg.edges`` the greedy ``t``-spanner keeps, examined in ``order``.

    Edge ``k`` is kept iff the edges kept before it do not connect its
    endpoints within ``t * length * (1 + 1e-12)``.
    """
    if not t >= 1:
        raise ValueError("t must be >= 1")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(udg.n)]
    xs, ys = udg.positions.T.tolist()
    edges, lengths, keep = udg.edges.tolist(), udg.edge_lengths.tolist(), []
    for k in order.tolist():
        (u, v), length = edges[k], lengths[k]
        if not _spanned(adj, xs, ys, u, v, t * length * (1.0 + 1e-12)):
            adj[u].append((v, length))
            adj[v].append((u, length))
            keep.append(k)
    return udg.edges[np.sort(np.array(keep, dtype=np.int64))]


def greedy_spanner(udg: Topology, *, t: float = 2.0) -> Topology:
    """Greedy ``t``-spanner of the UDG: :func:`spanner_edges` over the
    ``(length, lo, hi)`` order, the inverse of the cached ``udg._ranks``."""
    order = inverse_permutation(udg._ranks)
    return Topology(udg.positions, spanner_edges(udg, order, t))


@register("gspan2")
def _greedy_spanner_2(udg: Topology) -> Topology:
    return greedy_spanner(udg, t=2.0)
