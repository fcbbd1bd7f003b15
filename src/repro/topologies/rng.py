"""Relative neighborhood graph restricted to the unit disk graph.

Edge ``{u, v}`` survives iff no third node ``w`` is strictly closer to both
endpoints than they are to each other (the "lune" is empty). RNG is a
subgraph of the Gabriel graph and a supergraph of the EMST.

Each block of edges (:func:`~repro.geometry.points.row_blocks`) is tested
against all ``n`` nodes as one array: O(m·n). No ranking is involved; a
witness must be closer by a relative margin of 1e-12, so ties never block.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import row_blocks
from repro.model.topology import Topology
from repro.topologies.base import register


@register("rng")
def relative_neighborhood_graph(udg: Topology) -> Topology:
    pos = udg.positions
    x, y = pos[:, 0], pos[:, 1]
    keep = np.ones(udg.n_edges, dtype=bool)
    for block in row_blocks(udg.n_edges, udg.n):
        u, v = udg.edges[block, 0], udg.edges[block, 1]
        rows = np.arange(u.size)
        reach = (udg.edge_lengths[block] * (1.0 - 1e-12))[:, None]
        blocker = (np.hypot(x - x[u, None], y - y[u, None]) < reach) & (
            np.hypot(x - x[v, None], y - y[v, None]) < reach
        )
        blocker[rows, u] = False
        blocker[rows, v] = False
        keep[block] = ~blocker.any(axis=1)
    return Topology(pos, udg.edges[keep])
