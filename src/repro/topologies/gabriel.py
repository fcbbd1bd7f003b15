"""Gabriel graph restricted to the unit disk graph.

Edge ``{u, v}`` survives iff the closed disk with diameter ``uv`` contains
no third node — the classic planar structure used by geometric routing
(GPSR [7]) and first-generation topology control.

Each block of edges (:func:`~repro.geometry.points.row_blocks`) is tested
against all ``n`` nodes as one array: O(m·n). No ranking is involved; a
node on the disk boundary (relative slack 1e-12) blocks.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import row_blocks
from repro.model.topology import Topology
from repro.topologies.base import register


@register("gabriel")
def gabriel_graph(udg: Topology) -> Topology:
    pos = udg.positions
    x, y = pos[:, 0], pos[:, 1]
    keep = np.ones(udg.n_edges, dtype=bool)
    for block in row_blocks(udg.n_edges, udg.n):
        u, v = udg.edges[block, 0], udg.edges[block, 1]
        rows = np.arange(u.size)
        rad2 = ((x[u] - x[v]) ** 2 + (y[u] - y[v]) ** 2) / 4.0
        d2 = (x - ((x[u] + x[v]) / 2.0)[:, None]) ** 2 + (
            y - ((y[u] + y[v]) / 2.0)[:, None]
        ) ** 2
        d2[rows, u] = np.inf
        d2[rows, v] = np.inf
        keep[block] = ~np.any(d2 <= (rad2 * (1.0 + 1e-12))[:, None], axis=1)
    return Topology(pos, udg.edges[keep])
