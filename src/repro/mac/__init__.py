"""MAC-layer contention suite over the paper's topologies.

The dynamic counterpart of the static receiver-centric interference
measure, and the package's home for slotted one-hop contention:

- a pluggable backoff-policy zoo (:data:`BACKOFF_POLICIES`);
- :class:`MacSimulator`, a queued slotted-ALOHA/CSMA engine with traffic
  sources, duty cycles, ack/retransmit and disk or SINR-threshold
  capture. Plain slotted ALOHA (each node sends with probability ``p``
  per slot, no backoff) is one configuration of it, see
  :func:`repro.experiments.sim_collisions.slotted_aloha`;
- :class:`SaturatedAlohaSimulator`, the saturation-throughput engine; it
  keeps its own slot loop because no :class:`MacSimulator` configuration
  reproduces its RNG draw order (see its module docstring).

Hop-by-hop gathering stays in :mod:`repro.sim`. See ``docs/MAC.md``.
"""

from repro.mac.engine import MacConfig, MacResult, MacSimulator
from repro.mac.metrics import (
    interference_collision_spearman,
    jain_fairness,
    summarize,
)
from repro.mac.policies import (
    BACKOFF_POLICIES,
    AsbBackoff,
    BackoffPolicy,
    BackoffState,
    BebBackoff,
    EbebBackoff,
    EiedBackoff,
    FibonacciBackoff,
    UniformBackoff,
    make_policy,
    registered_policies,
)
from repro.mac.saturated import SaturatedAlohaSimulator, SaturatedResult

__all__ = [
    "BACKOFF_POLICIES",
    "AsbBackoff",
    "BackoffPolicy",
    "BackoffState",
    "BebBackoff",
    "EbebBackoff",
    "EiedBackoff",
    "FibonacciBackoff",
    "MacConfig",
    "MacResult",
    "MacSimulator",
    "SaturatedAlohaSimulator",
    "SaturatedResult",
    "UniformBackoff",
    "interference_collision_spearman",
    "jain_fairness",
    "make_policy",
    "registered_policies",
    "summarize",
]
