"""Saturated slotted ALOHA under any registered backoff policy.

Every node with at least one neighbour is permanently backlogged and
addresses a uniformly random neighbour; a reception fails iff a second
concurrent transmitter covers the receiver or the receiver is itself
transmitting (disk model, no capture).

Why this is not ``MacSimulator(config=MacConfig(traffic="saturated"))``:
the slot loop interleaves the ``integers(nbrs)`` receiver draw and the
``integers(window)`` wait draw per sender, in ascending sender order, and
redraws a wait after *every* attempt; the queued engine draws every
sender's receiver before any wait, and redraws a wait only while the
sender's queue still holds a packet, so it cannot reproduce these runs
bit for bit. ``policy="beb"`` run from the same seed is *bitwise
identical* to the frozen BEB reference in ``tests/test_mac_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.interference.receiver import coverage_matrix
from repro.mac.policies import BackoffPolicy, BackoffState, make_policy
from repro.model.topology import Topology
from repro.utils import as_generator

#: EWMA weight of the per-node channel-busy estimate fed to adaptive
#: policies (ASB); one value per slot, sample = "some other transmitter's
#: disk covered me this slot".
BUSY_EWMA_ALPHA = 0.1


@dataclass(frozen=True)
class SaturatedResult:
    """Per-node tallies of one saturated-ALOHA run.

    Field-compatible with the 1.x ``BebResult``: ``retransmissions``
    counts attempts beyond the first per *delivered* packet, ``mean_cw``
    is the contention window observed at delivery time.
    """

    n_slots: int
    attempts: np.ndarray
    deliveries: np.ndarray
    #: per node: retransmissions (attempts beyond the first per packet)
    retransmissions: np.ndarray
    #: per node: mean contention window observed at delivery time
    mean_cw: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def retransmissions_per_delivery(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.deliveries > 0, self.retransmissions / self.deliveries, np.nan
            )


class SaturatedAlohaSimulator:
    """Saturated slotted ALOHA with a pluggable backoff policy.

    Parameters
    ----------
    topology:
        Communication topology; transmissions use its derived radii.
    policy:
        Backoff-policy name from :data:`repro.mac.BACKOFF_POLICIES` or a
        configured :class:`~repro.mac.policies.BackoffPolicy` instance.
        Extra keyword arguments configure a named policy, e.g.
        ``SaturatedAlohaSimulator(t, policy="beb", cw_max=64)``.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        policy: str | BackoffPolicy = "beb",
        **policy_kwargs,
    ):
        self.topology = topology
        self.policy = make_policy(policy, **policy_kwargs)
        n = topology.n
        self._neighbors = [
            np.array(sorted(topology.neighbors(u)), dtype=np.int64)
            for u in range(n)
        ]
        self._covers = coverage_matrix(topology)

    def run(self, n_slots: int, *, seed=None) -> SaturatedResult:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        policy = self.policy
        rng = as_generator(seed)
        n = self.topology.n
        active = self.topology.degrees > 0
        cw = np.full(n, policy.initial_window(), dtype=np.int64)
        wait = np.zeros(n, dtype=np.int64)
        for u in range(n):
            if active[u]:
                wait[u] = rng.integers(cw[u])
        attempts = np.zeros(n, dtype=np.int64)
        deliveries = np.zeros(n, dtype=np.int64)
        retransmissions = np.zeros(n, dtype=np.int64)
        pending_retx = np.zeros(n, dtype=np.int64)  # failures on current packet
        cw_sum = np.zeros(n, dtype=np.float64)
        busy = np.zeros(n, dtype=np.float64)

        with obs.span(
            "mac.saturated", policy=policy.name, n=n, slots=n_slots
        ) as sp:
            for _ in range(n_slots):
                tx_mask = active & (wait == 0)
                wait[active & (wait > 0)] -= 1
                senders = np.nonzero(tx_mask)[0]
                if senders.size == 0:
                    busy *= 1.0 - BUSY_EWMA_ALPHA
                    continue
                attempts[senders] += 1
                cover_count = self._covers[senders].sum(axis=0)
                for u in senders:
                    nbrs = self._neighbors[u]
                    v = int(nbrs[rng.integers(nbrs.size)])
                    success = (not tx_mask[v]) and cover_count[v] == 1
                    if success:
                        deliveries[u] += 1
                        retransmissions[u] += pending_retx[u]
                        cw_sum[u] += cw[u]
                        pending_retx[u] = 0
                    else:
                        pending_retx[u] += 1
                    cw[u] = policy.next_window(
                        int(pending_retx[u]),
                        BackoffState(window=int(cw[u]), busy=float(busy[u])),
                    )
                    wait[u] = rng.integers(cw[u])
                # busy sample: covered by another transmitter's disk (the
                # covers diagonal is False, so self-coverage never counts)
                busy += BUSY_EWMA_ALPHA * ((cover_count > 0) - busy)
            obs.count("mac.attempts", int(attempts.sum()))
            obs.count("mac.delivered", int(deliveries.sum()))
            sp.set(
                attempts=int(attempts.sum()), delivered=int(deliveries.sum())
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_cw = np.where(deliveries > 0, cw_sum / deliveries, np.nan)
        return SaturatedResult(
            n_slots=n_slots,
            attempts=attempts,
            deliveries=deliveries,
            retransmissions=retransmissions,
            mean_cw=mean_cw,
            meta={
                "policy": policy.name,
                "cw_min": policy.cw_min,
                "cw_max": policy.cw_max,
            },
        )
