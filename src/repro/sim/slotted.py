"""Data gathering to a sink over a routing tree with slotted ALOHA.

Reception follows the disk rule the receiver-centric measure counts: a
packet from ``u`` reaches ``v`` iff ``v`` is not itself transmitting
(half-duplex) and no other transmitter's disk covers ``v`` in that slot.

Why this is not :class:`repro.mac.MacSimulator`: the MAC engine delivers
each packet one hop to a random neighbour, while gathering relays it hop
by hop along ``parent`` pointers to a sink, so a received packet joins
the receiver's queue. The MAC engine does not model forwarding.
"""

from __future__ import annotations

import numpy as np

from repro.interference.receiver import coverage_matrix
from repro.model.topology import Topology
from repro.utils import as_generator


class GatherSimulator:
    """Data gathering to a sink over a routing tree with slotted ALOHA.

    Every node periodically sources a packet; packets are forwarded hop by
    hop toward the sink along ``parent`` pointers. A node with a non-empty
    queue transmits its head-of-line packet with probability ``p`` per slot;
    the packet advances only when the slotted-ALOHA reception (disk rule,
    see the module docstring) succeeds, otherwise it stays queued —
    interference thus shows up directly as retransmissions and delay, the
    energy story of the paper's introduction.
    """

    def __init__(
        self,
        topology: Topology,
        parent: np.ndarray,
        *,
        p: float = 0.2,
        source_period: int = 50,
    ):
        if source_period < 1:
            raise ValueError("source_period must be >= 1")
        self.topology = topology
        self.parent = np.asarray(parent, dtype=np.int64)
        if self.parent.shape != (topology.n,):
            raise ValueError("parent must have one entry per node")
        self.p = float(p)
        self.source_period = int(source_period)
        self._covers = coverage_matrix(topology)

    def run(self, n_slots: int, *, seed=None) -> dict:
        rng = as_generator(seed)
        n = self.topology.n
        sink_mask = self.parent < 0
        queues = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        successes = np.zeros(n, dtype=np.int64)
        delivered = 0
        sourced = 0
        for slot in range(n_slots):
            if slot % self.source_period == 0:
                queues[~sink_mask] += 1
                sourced += int((~sink_mask).sum())
            backlog = (queues > 0) & ~sink_mask
            tx_mask = backlog & (rng.random(n) < self.p)
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            cover_count = self._covers[senders].sum(axis=0)
            for u in senders:
                v = int(self.parent[u])
                if tx_mask[v] or cover_count[v] != 1:
                    continue  # head-of-line packet stays queued
                successes[u] += 1
                queues[u] -= 1
                if sink_mask[v]:
                    delivered += 1
                else:
                    queues[v] += 1
        return {
            "attempts": attempts,
            "successes": successes,
            "delivered": delivered,
            "sourced": sourced,
            "backlog": queues,
            "retransmission_overhead": float(
                attempts.sum() / max(successes.sum(), 1)
            ),
        }
