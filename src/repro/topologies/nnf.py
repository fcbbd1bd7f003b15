"""Nearest Neighbor Forest — the common core of classical topology control.

Every node with at least one UDG neighbour adds an (undirected) edge to its
nearest neighbour, ties broken by smaller index so the construction is
deterministic. The result is a forest; Section 4 shows that *containing*
this forest already forces Omega(n) interference on adversarial instances.

The nearest neighbour is the head of each row of the
:class:`~repro.topologies.ranking.NeighborTable` (order ``(dist, dst)``):
O(m log m) for the table, O(m) after it.
"""

from __future__ import annotations

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


def nearest_neighbor_edges(udg: Topology) -> np.ndarray:
    """Canonical ``(m, 2)`` edge array of each node's nearest-neighbour edge."""
    return NeighborTable(udg).leading_edges(1)


@register("nnf")
def nearest_neighbor_forest(udg: Topology) -> Topology:
    """The Nearest Neighbor Forest as a topology (possibly disconnected)."""
    return Topology(udg.positions, nearest_neighbor_edges(udg))
