"""LIFE and LISE — the explicit-interference algorithms of Burkhart et al. [2].

These are the "notable exception" of Section 4: they minimise the
*sender-centric* edge-coverage measure and do not necessarily contain the
Nearest Neighbor Forest — yet the paper shows they, too, perform badly under
the receiver-centric measure.

- **LIFE** (Low-Interference Forest Establisher): Kruskal's algorithm over
  UDG edges sorted by coverage — a spanning forest minimising the maximum
  edge coverage among all connectivity-preserving subgraphs.
- **LISE** (Low-Interference Spanner Establisher): insert edges in coverage
  order until every UDG edge is ``t``-spanned, yielding a coverage-optimal
  ``t``-spanner.

Coverage ties go by the ``(length, lo, hi)`` rank (the topology's cached
``_ranks``): one argsort of the unique key ``coverage * m + rank``,
O(m log m) after the O(m·n) coverage scan.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.unionfind import DisjointSet
from repro.interference.sender import edge_coverage
from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.greedy_spanner import spanner_edges
from repro.utils.validation import check_key_span


def _coverage_order(udg: Topology) -> np.ndarray:
    """Indices of UDG edges sorted by (coverage, length, lo, hi) ascending."""
    coverage, m = edge_coverage(udg), udg.n_edges
    check_key_span((int(coverage.max(initial=0)) + 1) * m, "coverage-order")
    return np.argsort(coverage * np.int64(m) + udg._ranks)


@register("life")
def life(udg: Topology) -> Topology:
    """Coverage-minimal spanning forest (LIFE)."""
    ds = DisjointSet(udg.n)
    edges, keep = udg.edges.tolist(), []
    for k in _coverage_order(udg).tolist():
        u, v = edges[k]
        if ds.union(u, v):
            keep.append((u, v))
            if ds.n_components == 1:
                break
    return Topology(udg.positions, np.array(keep, dtype=np.int64).reshape(-1, 2))


def lise(udg: Topology, *, t: float = 2.0) -> Topology:
    """Coverage-minimal ``t``-spanner of the UDG (LISE).

    Edges are examined in coverage order; an edge is inserted iff the
    current partial topology does not yet connect its endpoints within
    ``t`` times its Euclidean length (the bounded greedy loop of
    :func:`~repro.topologies.greedy_spanner.spanner_edges`).
    """
    return Topology(udg.positions, spanner_edges(udg, _coverage_order(udg), t))


@register("lise2")
def _lise2(udg: Topology) -> Topology:
    return lise(udg, t=2.0)
