"""Yao graph restricted to the unit disk graph.

Each node partitions the plane into ``k`` equal cones (first cone starting
at angle 0) and keeps a directed edge to the nearest UDG neighbour in each
non-empty cone; the undirected output is the union of directions. With
``k >= 6`` the Yao graph is a connectivity-preserving spanner.

Distance ties go to the smaller index: a stable sort of the
:class:`~repro.topologies.ranking.NeighborTable` by ``(src, cone)`` keeps
each cone's neighbours in ``(dist, dst)`` order, and the cone's head is
kept. O(m log m).
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable, run_heads


def yao_graph(udg: Topology, *, k: int = 6) -> Topology:
    if k < 1:
        raise ValueError("k must be >= 1")
    table = NeighborTable(udg)
    sector = 2.0 * math.pi / k
    cone = np.minimum((table.directions() / sector).astype(np.int64), k - 1)
    order = np.lexsort((cone, table.src))
    heads = run_heads(table.src[order] * np.int64(k) + cone[order], 1)
    return Topology(udg.positions, udg.edges[np.unique(table.edge[order][heads])])


@register("yao6")
def _yao6(udg: Topology) -> Topology:
    return yao_graph(udg, k=6)
