"""Relative neighborhood graph restricted to the unit disk graph.

Edge ``{u, v}`` survives iff no third node ``w`` is strictly closer to both
endpoints than they are to each other (the "lune" is empty). RNG is a
subgraph of the Gabriel graph and a supergraph of the EMST.

Each block of edges (:func:`~repro.geometry.points.row_blocks`) is tested
against all ``n`` nodes as one array: O(m·n). No ranking is involved; a
witness must be closer by a relative margin of 1e-12, so ties never block.
The strict ``hypot(dx, dy) < reach`` is decided by
:class:`~repro.geometry.spatial.DiskCover` as ``hypot <= reach⁻``, with
``reach⁻`` the float below ``reach``: the same booleans, since ``hypot``
returns a float. For ``reach = 0`` that float is negative and no pair
passes, as no distance is below 0.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import row_blocks
from repro.geometry.spatial import DiskCover
from repro.model.topology import Topology
from repro.topologies.base import register


@register("rng")
def relative_neighborhood_graph(udg: Topology) -> Topology:
    pos = udg.positions
    x, y = pos[:, 0], pos[:, 1]
    keep = np.ones(udg.n_edges, dtype=bool)
    reach = udg.edge_lengths * (1.0 - 1e-12)
    cover = DiskCover(np.nextafter(reach, -np.inf))
    for block in row_blocks(udg.n_edges, udg.n):
        u, v = udg.edges[block, 0], udg.edges[block, 1]
        rows = np.arange(u.size)
        q = block, None  # the block's disks, as a column
        blocker = cover(x - x[u, None], y - y[u, None], q)
        blocker &= cover(x - x[v, None], y - y[v, None], q)
        blocker[rows, u] = False
        blocker[rows, v] = False
        keep[block] = ~blocker.any(axis=1)
    return Topology(pos, udg.edges[keep])
