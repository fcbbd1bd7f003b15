"""Sender-centric edge-coverage interference (Burkhart et al. [2]).

The baseline measure the paper argues against. The coverage of an edge
``e = {u, v}`` is the number of nodes lying in ``D(u, |uv|) or D(v, |uv|)``
— the nodes affected when ``u`` and ``v`` communicate over ``e``. The
interference of a topology is an aggregate (max by default) of edge
coverages.

Endpoints themselves are always inside both disks; by default they are
*excluded* from the count so an isolated short edge in an empty region has
coverage 0 (set ``include_endpoints=True`` for the convention that counts
them, which shifts every coverage by exactly 2).

:func:`edge_coverage` tests each block of edges
(:func:`repro.geometry.points.row_blocks`) against all ``n`` nodes: O(m·n).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import row_blocks
from repro.interference.receiver import ATOL, RTOL
from repro.model.topology import Topology


def edge_coverage(
    topology: Topology,
    *,
    include_endpoints: bool = False,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Coverage ``Cov(e)`` of every edge, aligned with ``topology.edges``."""
    pos = topology.positions
    x, y = pos[:, 0], pos[:, 1]
    edges = topology.edges
    out = np.zeros(edges.shape[0], dtype=np.int64)
    thresh = topology.edge_lengths * (1.0 + rtol) + atol
    for block in row_blocks(edges.shape[0], topology.n):
        u, v = edges[block, 0], edges[block, 1]
        reach = thresh[block, None]
        covered = (np.hypot(x - x[u, None], y - y[u, None]) <= reach) | (
            np.hypot(x - x[v, None], y - y[v, None]) <= reach
        )
        if not include_endpoints:
            rows = np.arange(u.size)
            covered[rows, u] = False
            covered[rows, v] = False
        out[block] = covered.sum(axis=1)
    return out


def sender_interference(
    topology: Topology,
    *,
    agg: str = "max",
    include_endpoints: bool = False,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> float:
    """Aggregate sender-centric interference of a topology.

    ``agg`` is ``"max"`` (the measure of [2]), ``"mean"`` or ``"sum"``.
    Returns 0 for an edge-free topology.
    """
    cov = edge_coverage(
        topology, include_endpoints=include_endpoints, rtol=rtol, atol=atol
    )
    if cov.size == 0:
        return 0.0
    if agg == "max":
        return float(cov.max())
    if agg == "mean":
        return float(cov.mean())
    if agg == "sum":
        return float(cov.sum())
    raise ValueError(f"unknown agg {agg!r}")
