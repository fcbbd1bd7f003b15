"""Interference-aware TDMA link scheduling.

A complementary, collision-free view of why the receiver-centric measure
matters: if transmissions are scheduled into time slots such that no
receiver is covered by two simultaneous transmitters, the schedule length
is governed by the interference structure — low-I topologies drain a full
round of traffic in fewer slots.

The conflict rule matches the slotted simulator: transmitters ``u`` and
``w`` conflict iff one's disk covers the other's receiver-side (here,
node-level scheduling: ``u`` and ``w`` cannot share a slot if either's
disk covers the other or a neighbour of the other — the set of nodes that
might be receiving from it).
"""

from __future__ import annotations

import numpy as np

from repro.interference.receiver import coverage_matrix
from repro.model.topology import Topology


def conflict_graph(topology: Topology) -> np.ndarray:
    """Symmetric boolean ``(n, n)`` matrix of scheduling conflicts.

    ``u`` and ``w`` conflict iff ``u``'s disk covers ``w`` or any neighbour
    of ``w`` (or vice versa): were they to transmit together, some possible
    reception of the other would be corrupted. Adjacent nodes always
    conflict (half-duplex).
    """
    n = topology.n
    covers = coverage_matrix(topology)

    conflict = np.zeros((n, n), dtype=bool)
    for u in range(n):
        hit = covers[u].copy()  # u disturbs these nodes directly
        for w in range(n):
            if w == u:
                continue
            # does u cover w or one of w's receivers (neighbours)?
            if hit[w] or any(hit[v] for v in topology.neighbors(w)):
                conflict[u, w] = True
    conflict |= conflict.T
    # adjacent nodes cannot share a slot (a node cannot send and receive)
    for a, b in topology.edges:
        conflict[a, b] = conflict[b, a] = True
    np.fill_diagonal(conflict, False)
    return conflict


def greedy_tdma_schedule(topology: Topology) -> np.ndarray:
    """Welsh–Powell greedy colouring of the conflict graph.

    Returns an int64 slot assignment per node; ``schedule_length`` is its
    max + 1. Nodes with no neighbours never transmit and get slot 0 for
    free (they conflict with nobody).
    """
    conflict = conflict_graph(topology)
    n = topology.n
    degree = conflict.sum(axis=1)
    order = np.argsort(-degree, kind="stable")
    colors = np.full(n, -1, dtype=np.int64)
    for u in order:
        used = {int(colors[w]) for w in np.nonzero(conflict[u])[0] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[u] = c
    return colors


def schedule_length(topology: Topology) -> int:
    """Number of TDMA slots of the greedy schedule (0 for an empty network)."""
    if topology.n == 0:
        return 0
    return int(greedy_tdma_schedule(topology).max()) + 1


def validate_schedule(topology: Topology, colors: np.ndarray) -> bool:
    """True iff no two conflicting nodes share a slot."""
    conflict = conflict_graph(topology)
    colors = np.asarray(colors)
    ii, jj = np.nonzero(conflict)
    return bool(np.all(colors[ii] != colors[jj]) if ii.size else True)
