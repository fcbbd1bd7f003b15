"""Yao graph restricted to the unit disk graph.

Each node partitions the plane into ``k`` equal cones (first cone starting
at angle 0) and keeps a directed edge to the nearest UDG neighbour in each
non-empty cone; the undirected output is the union of directions. With
``k >= 6`` the Yao graph is a connectivity-preserving spanner.

Distance ties go to the smaller index: sorting the
:class:`~repro.topologies.ranking.NeighborTable` by the unique key
``(src * k + cone) * 2m + position`` keeps each cone's neighbours in
``(dist, dst)`` order, and the cone's head is kept. O(m log m).
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable, run_heads
from repro.utils.validation import check_key_span


def yao_graph(udg: Topology, *, k: int = 6) -> Topology:
    if k < 1:
        raise ValueError("k must be >= 1")
    table = NeighborTable(udg)
    sector = 2.0 * math.pi / k
    cone = np.minimum((table.directions() / sector).astype(np.int64), k - 1)
    group = table.src * np.int64(k) + cone
    # the table position breaks ties: each cone keeps its (dist, dst) order
    check_key_span(udg.n * k * cone.size, "Yao cone")
    order = np.argsort(group * np.int64(cone.size) + np.arange(cone.size))
    heads = run_heads(group[order], 1)
    return Topology(udg.positions, table.edges_of(order[heads]))


@register("yao6")
def _yao6(udg: Topology) -> Topology:
    return yao_graph(udg, k=6)
