"""Packet-level wireless simulation substrate.

The paper motivates interference reduction through collisions,
retransmissions and energy (Section 1) but never simulates. Slotted
one-hop contention (ALOHA, CSMA deferral, disk or SINR capture) lives in
:mod:`repro.mac`; this package keeps only what that engine does not
model:

- :mod:`repro.sim.engine` — a generic discrete-event core for
  continuous, unslotted time;
- :mod:`repro.sim.csma` — p-persistent CSMA in continuous time;
- :mod:`repro.sim.slotted` — hop-by-hop data gathering to a sink;
- :mod:`repro.sim.scheduling` — conflict-free TDMA schedules;
- :mod:`repro.sim.traffic` — source models and data-gathering workloads;
- :mod:`repro.sim.metrics` — per-node collision/energy statistics and
  correlation against the static measure.
"""

from repro.sim.engine import EventQueue, Simulator
from repro.sim.slotted import GatherSimulator
from repro.sim.csma import CsmaSimulator, CsmaResult
from repro.sim.traffic import BernoulliSource, gather_tree
from repro.sim.metrics import collision_interference_correlation, transmit_energy

__all__ = [
    "EventQueue",
    "Simulator",
    "GatherSimulator",
    "CsmaSimulator",
    "CsmaResult",
    "BernoulliSource",
    "gather_tree",
    "collision_interference_correlation",
    "transmit_energy",
]
