"""CBTC — cone-based topology control (Wattenhofer, Li, Bahl & Wang [18]).

Each node grows its transmission radius through its sorted UDG neighbour
distances until every cone of angle ``alpha`` around it contains a reached
neighbour (or all neighbours are reached). The kept directed edges are the
reached neighbours; the undirected output takes the symmetric closure
(union), which for ``alpha <= 2*pi/3`` preserves connectivity.

Neighbours are reached in table row order (:mod:`repro.topologies.ranking`;
distance ties to the smaller index). More neighbours only split gaps, so
coverage is monotone in the prefix, and every node bisects for the
shortest covering one. All nodes bisect at once: each row's directions are
sorted by angle once, and one round tests every node's prefix ``mid``
together — the entries of rank ``< mid`` keep their angular order, and
the widest gap per node is one ``np.maximum.reduceat``. O(m log m) in
all.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


def _widest_gaps(ang: np.ndarray, row: np.ndarray, sel: np.ndarray):
    """``(nodes, gaps)``: the widest circular gap between the selected
    directions of every node that has one.

    ``ang`` and ``row`` list directions sorted by ``(row, angle)``; every
    selected subsequence of a row is then sorted too, and its wrap-around
    gap closes at its first direction plus ``2*pi``. A single direction
    leaves a gap of ``2*pi``.
    """
    a, r = ang[sel], row[sel]
    first = np.flatnonzero(np.diff(r, prepend=-1))
    last = np.flatnonzero(np.diff(r, append=-1))
    gaps = np.empty_like(a)
    gaps[:-1] = a[1:] - a[:-1]
    gaps[last] = a[first] + 2.0 * math.pi - a[last]
    return r[first], np.maximum.reduceat(gaps, first)


def cbtc(udg: Topology, *, alpha: float = 2.0 * math.pi / 3.0) -> Topology:
    if not 0 < alpha <= 2.0 * math.pi:
        raise ValueError("alpha must lie in (0, 2*pi]")
    table = NeighborTable(udg)
    # every (closed) cone of angle alpha holds a direction iff no gap
    # between consecutive directions is wider than alpha
    limit = alpha + 1e-12
    ang = table.directions()
    rank = np.arange(ang.size) - table.indptr[table.src]
    order = np.lexsort((ang, table.src))
    ang, row, row_rank = ang[order], table.src[order], rank[order]
    # prefix lengths: a node whose full ring leaves a gap reaches all
    # neighbours; the others bisect [lo, hi] for the shortest covering one
    hi = np.diff(table.indptr)
    lo = np.ones_like(hi)
    nodes, gaps = _widest_gaps(ang, row, row_rank < hi[row])
    bisecting = np.zeros(udg.n, dtype=bool)
    bisecting[nodes[gaps <= limit]] = True
    bisecting &= lo < hi
    while bisecting.any():
        mid = np.where(bisecting, (lo + hi) // 2, 0)
        nodes, gaps = _widest_gaps(ang, row, row_rank < mid[row])
        ok = gaps <= limit
        hi[nodes[ok]] = mid[nodes[ok]]
        lo[nodes[~ok]] = mid[nodes[~ok]] + 1
        bisecting &= lo < hi
    reached = rank < hi[table.src]
    return Topology(udg.positions, table.edges_of(reached))


@register("cbtc")
def _cbtc_default(udg: Topology) -> Topology:
    return cbtc(udg)
