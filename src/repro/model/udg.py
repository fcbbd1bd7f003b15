"""Unit disk graph construction.

The UDG ``G = (V, E)`` has an edge between every pair at Euclidean distance
at most the unit range (Clark, Colbourn & Johnson [3]). Two kernels are
provided, sharing the ``hypot(dx, dy) <= unit`` predicate so they return
identical edge arrays: a brute-force vectorized O(n^2) pass, fastest for
small n, and a fused grid-index pass that is near-linear for
bounded-density instances; ``method="auto"`` picks the grid above
:data:`~repro.geometry.spatial.AUTO_BATCH_MIN_N` nodes.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import pairwise_within
from repro.geometry.spatial import AUTO_BATCH_MIN_N, GridIndex, clamped_cell_size
from repro.model.topology import Topology
from repro.utils import check_positions


def unit_disk_graph(
    positions, *, unit: float = 1.0, method: str = "auto"
) -> Topology:
    """Build the unit disk graph over ``positions`` as a :class:`Topology`.

    Parameters
    ----------
    positions:
        ``(n, 2)`` points (1-D highway arrays accepted).
    unit:
        Maximum transmission range (edge iff distance <= ``unit``).
    method:
        ``"brute"`` (vectorized O(n^2)), ``"grid"`` (spatial index), or
        ``"auto"``.
    """
    pos = check_positions(positions)
    if unit <= 0:
        raise ValueError("unit must be positive")
    if method == "auto":
        method = "grid" if pos.shape[0] > AUTO_BATCH_MIN_N else "brute"
    if method == "brute":
        edges = pairwise_within(pos, unit)
    elif method == "grid":
        spans = (np.ptp(pos[:, 0]), np.ptp(pos[:, 1])) if pos.shape[0] else 0.0
        cell = clamped_cell_size(unit, spans, pos.shape[0])
        edges = GridIndex(pos, cell_size=cell).pairs_within(unit)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Topology(pos, edges)


def udg_max_degree(positions, *, unit: float = 1.0) -> int:
    """Maximum node degree Delta of the unit disk graph.

    Delta upper-bounds the receiver-centric interference of *any* subgraph
    topology (Section 3) and parametrises algorithm A_gen.
    """
    return unit_disk_graph(positions, unit=unit).max_degree()
