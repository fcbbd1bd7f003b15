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

Both read the UDG's cached ``_coverage_ranks``: the ``(coverage, length,
lo, hi)`` rank of every edge, from one O(m·n) coverage scan per UDG that
the two share. Coverage ties go by the ``(length, lo, hi)`` rank (the
topology's cached ``_ranks``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.mst import inverse_permutation, rank_spanning_forest
from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.greedy_spanner import spanner_edges


def _coverage_order(udg: Topology) -> np.ndarray:
    """Indices of UDG edges sorted by (coverage, length, lo, hi) ascending."""
    return inverse_permutation(udg._coverage_ranks)


@register("life")
def life(udg: Topology) -> Topology:
    """Coverage-minimal spanning forest (LIFE).

    Kruskal's forest in coverage order is the minimum spanning forest under
    the distinct coverage ranks: one
    :func:`~repro.graphs.mst.rank_spanning_forest` call.
    """
    return Topology(
        udg.positions, rank_spanning_forest(udg.n, udg.edges, udg._coverage_ranks)
    )


def lise(udg: Topology, *, t: float = 2.0) -> Topology:
    """Coverage-minimal ``t``-spanner of the UDG (LISE).

    Edges are examined in coverage order; an edge is inserted iff the
    current partial topology does not yet connect its endpoints within
    ``t`` times its Euclidean length (the goal-directed greedy loop of
    :func:`~repro.topologies.greedy_spanner.spanner_edges`).
    """
    return Topology(udg.positions, spanner_edges(udg, _coverage_order(udg), t))


@register("lise2")
def _lise2(udg: Topology) -> Topology:
    return lise(udg, t=2.0)
