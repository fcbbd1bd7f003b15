"""CBTC — cone-based topology control (Wattenhofer, Li, Bahl & Wang [18]).

Each node grows its transmission radius through its sorted UDG neighbour
distances until every cone of angle ``alpha`` around it contains a reached
neighbour (or all neighbours are reached). The kept directed edges are the
reached neighbours; the undirected output takes the symmetric closure
(union), which for ``alpha <= 2*pi/3`` preserves connectivity.

Neighbours are reached in table row order (:mod:`repro.topologies.ranking`;
distance ties to the smaller index). More neighbours only split gaps, so
coverage is monotone in the prefix and each node bisects for the shortest
covering one: O(m log m), then O(d log² d) per node of degree d.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


def _gaps_covered(angles: np.ndarray, alpha: float) -> bool:
    """True iff every (closed) cone of angle ``alpha`` contains a direction.

    Equivalent to: the maximum circular gap between consecutive directions
    is at most ``alpha`` — in particular a single neighbour suffices for
    ``alpha = 2*pi``.
    """
    if angles.size == 0:
        return False
    s = np.sort(angles)
    gaps = np.diff(s, append=s[0] + 2.0 * math.pi)
    return bool(gaps.max() <= alpha + 1e-12)


def cbtc(udg: Topology, *, alpha: float = 2.0 * math.pi / 3.0) -> Topology:
    if not 0 < alpha <= 2.0 * math.pi:
        raise ValueError("alpha must lie in (0, 2*pi]")
    table = NeighborTable(udg)
    ang = table.directions()
    reached = np.zeros(table.src.size, dtype=bool)
    for start, stop in zip(table.indptr[:-1].tolist(), table.indptr[1:].tolist()):
        lo, hi = 1, stop - start
        if hi and _gaps_covered(ang[start:stop], alpha):
            while lo < hi:
                mid = (lo + hi) // 2
                if _gaps_covered(ang[start : start + mid], alpha):
                    hi = mid
                else:
                    lo = mid + 1
        reached[start : start + hi] = True
    return Topology(udg.positions, udg.edges[np.unique(table.edge[reached])])


@register("cbtc")
def _cbtc_default(udg: Topology) -> Topology:
    return cbtc(udg)
