"""XTC (Wattenhofer & Zollinger [19]) over a pluggable link-quality order.

XTC's defining feature is that it needs no positions — only a total order
on each node's links by quality. Each node ranks its UDG neighbours; edge
``{u, v}`` is dropped iff some common witness ``w`` is better than ``v``
from ``u``'s view *and* better than ``u`` from ``v``'s view. Because the
quality is a symmetric edge weight, both endpoints reach the same verdict
and the output is connected whenever the input is.

The default quality is Euclidean distance (the geometric setting, where
the output is a subgraph of the RNG); pass any symmetric ``link_quality``
(lower = better) to model e.g. measured packet loss.

Links rank by ``(quality, lo, hi)`` (:mod:`repro.topologies.ranking`).
The witnesses better than ``v`` for ``u`` precede ``v`` in ``u``'s table
row, so one vectorised triangle test over the shorter of the two prefixes
decides every edge: O(m log m + W), W = the summed prefix lengths.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


def xtc_with_quality(
    udg: Topology,
    link_quality: Callable[[int, int], float] | None = None,
) -> Topology:
    """Run XTC with an arbitrary symmetric link-quality function.

    ``link_quality(u, v)`` must be symmetric (same value for ``(v, u)``);
    lower values are better links. It is called once per edge, as
    ``link_quality(lo, hi)``. Ties are broken by the canonical edge id so
    the ranking is always total.
    """
    quality = None if link_quality is None else np.array(
        [link_quality(u, v) for u, v in udg.edges.tolist()], dtype=np.float64
    )
    table = NeighborTable(udg, quality)
    # each edge is tested from the endpoint whose row reaches it first
    place = table.slot - table.indptr[udg.edges]
    sel = table.slot[np.arange(udg.n_edges), place.argmin(axis=1)]
    dropped = np.zeros(udg.n_edges, dtype=bool)
    for i, _, closing in table.triangles(sel, place.min(axis=1)):
        dropped[i[table.rank[closing] < table.rank[i]]] = True
    return Topology(udg.positions, udg.edges[~dropped])


@register("xtc")
def xtc(udg: Topology) -> Topology:
    """XTC with Euclidean link quality (the geometric setting)."""
    return xtc_with_quality(udg)
