"""Nearest Neighbor Forest — the common core of classical topology control.

Every node with at least one UDG neighbour adds an (undirected) edge to its
nearest neighbour, ties broken by smaller index so the construction is
deterministic. The result is a forest; Section 4 shows that *containing*
this forest already forces Omega(n) interference on adversarial instances.

The nearest neighbour of a node is the end of its least-ranked incident
edge in the ``(length, lo, hi)`` order (the topology's cached ``_ranks``):
one ``np.minimum.at`` over both endpoints, O(m) after the ranks. An edge
is kept iff it is the least-ranked edge at either endpoint.
"""

from __future__ import annotations

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register


def nearest_neighbor_edges(udg: Topology) -> np.ndarray:
    """Canonical ``(m, 2)`` edge array of each node's nearest-neighbour edge."""
    edges, rank = udg.edges, udg._ranks
    least = np.full(udg.n, udg.n_edges, dtype=np.int64)
    np.minimum.at(least, edges[:, 0], rank)
    np.minimum.at(least, edges[:, 1], rank)
    return edges[(rank == least[edges[:, 0]]) | (rank == least[edges[:, 1]])]


@register("nnf")
def nearest_neighbor_forest(udg: Topology) -> Topology:
    """The Nearest Neighbor Forest as a topology (possibly disconnected)."""
    return Topology(udg.positions, nearest_neighbor_edges(udg))
