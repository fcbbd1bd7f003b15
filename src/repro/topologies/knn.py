"""k-nearest-neighbour topology restricted to the unit disk graph.

Edge ``{u, v}`` is kept iff ``v`` is among the ``k`` nearest UDG neighbours
of ``u`` *or* vice versa (the symmetric union, the usual connectivity-
friendly convention). ``k = 1`` recovers the Nearest Neighbor Forest.

Distance ties go to the smaller index: the ``k`` nearest are the first
``k`` entries of each :class:`~repro.topologies.ranking.NeighborTable` row.
O(m log m).
"""

from __future__ import annotations

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


def knn_topology(udg: Topology, *, k: int = 3) -> Topology:
    if k < 1:
        raise ValueError("k must be >= 1")
    return Topology(udg.positions, NeighborTable(udg).leading_edges(k))


@register("knn3")
def _knn3(udg: Topology) -> Topology:
    return knn_topology(udg, k=3)
