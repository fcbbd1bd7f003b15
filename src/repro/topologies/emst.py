"""Euclidean minimum spanning tree restricted to the unit disk graph.

The EMST is the canonical connectivity-preserving, energy-frugal topology;
it contains the Nearest Neighbor Forest (every nearest-neighbour edge is in
every MST under unique weights), which makes it the paper's archetypal
"good sparse topology that still fails on interference".

The forest is :func:`repro.graphs.mst.rank_spanning_forest` over the UDG's
cached lengths and ``(length, lo, hi)`` ranks, so the edges are neither
re-validated nor re-measured: one scipy minimum-spanning-forest call.
"""

from __future__ import annotations

from repro.graphs.mst import rank_spanning_forest
from repro.model.topology import Topology
from repro.topologies.base import register


@register("emst")
def euclidean_mst(udg: Topology) -> Topology:
    """Spanning forest of ``udg`` with minimum total Euclidean length."""
    edges = rank_spanning_forest(udg.n, udg.edges, udg._ranks)
    return Topology(udg.positions, edges)
