"""Packet-level wireless simulation substrate.

The paper motivates interference reduction through collisions,
retransmissions and energy (Section 1) but never simulates. Slotted
one-hop contention (ALOHA, CSMA deferral, disk or SINR capture) and its
metrics live in :mod:`repro.mac`; this package keeps only what that
engine does not model:

- :mod:`repro.sim.slotted` — hop-by-hop data gathering to a sink;
- :mod:`repro.sim.scheduling` — conflict-free TDMA schedules;
- :mod:`repro.sim.traffic` — source models and data-gathering workloads.
"""

from repro.sim.slotted import GatherSimulator
from repro.sim.traffic import BernoulliSource, gather_tree

__all__ = [
    "GatherSimulator",
    "BernoulliSource",
    "gather_tree",
]
