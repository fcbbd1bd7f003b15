"""p-persistent CSMA over the discrete-event engine.

A continuous-time refinement of the slotted model: packets arrive at each
node as a Poisson process; before transmitting, a node senses the channel
and defers (random exponential backoff) while any *audible* transmitter —
one whose disk covers the would-be sender — is active. A reception at ``v``
fails iff some other transmission overlapping in time covers ``v``.

Carrier sensing is receiver-blind (the classic hidden-terminal situation),
so collisions at the receiver persist exactly where the receiver-centric
measure predicts contention.

Why this is not ``repro.mac.MacSimulator(config=MacConfig(mode="csma"))``:
arrivals, backoffs and transmissions here happen at real-valued times,
so two transmissions overlap partially; the MAC engine is slotted and
cannot express unslotted timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.interference.receiver import coverage_matrix
from repro.model.topology import Topology
from repro.sim.engine import Simulator
from repro.utils import as_generator


@dataclass(frozen=True)
class CsmaResult:
    duration: float
    attempts: np.ndarray
    rx_ok: np.ndarray
    rx_collision: np.ndarray
    deferrals: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def collision_rate(self) -> np.ndarray:
        addressed = self.rx_ok + self.rx_collision
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(addressed > 0, self.rx_collision / addressed, np.nan)


class CsmaSimulator(Simulator):
    """Poisson-arrival, p-persistent CSMA simulator over a fixed topology.

    Parameters
    ----------
    topology:
        Communication topology (transmissions use its derived radii).
    arrival_rate:
        Per-node Poisson packet rate (packets per unit time).
    tx_time:
        Transmission duration (all packets equal length).
    backoff_mean:
        Mean of the exponential backoff drawn when the channel is busy.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        arrival_rate: float = 0.05,
        tx_time: float = 1.0,
        backoff_mean: float = 2.0,
        seed=None,
    ):
        super().__init__()
        if arrival_rate < 0 or tx_time <= 0 or backoff_mean <= 0:
            raise ValueError("rates and durations must be positive")
        self.topology = topology
        self.arrival_rate = float(arrival_rate)
        self.tx_time = float(tx_time)
        self.backoff_mean = float(backoff_mean)
        self.rng = as_generator(seed)
        n = topology.n
        self._neighbors = [
            np.array(sorted(topology.neighbors(u)), dtype=np.int64)
            for u in range(n)
        ]
        self._covers = coverage_matrix(topology)

        self.attempts = np.zeros(n, dtype=np.int64)
        self.rx_ok = np.zeros(n, dtype=np.int64)
        self.rx_collision = np.zeros(n, dtype=np.int64)
        self.deferrals = np.zeros(n, dtype=np.int64)
        #: transmissions currently on the air: sender -> (start, receiver,
        #: corrupted flag stored in a mutable list)
        self._active: dict[int, list] = {}
        self._horizon = 0.0
        self._started = False

    # -- channel model -------------------------------------------------------
    def _channel_busy_at(self, u: int) -> bool:
        """True iff some active transmitter's disk covers ``u``."""
        return any(self._covers[w, u] for w in self._active)

    def _begin_transmission(self, u: int) -> None:
        nbrs = self._neighbors[u]
        v = int(nbrs[self.rng.integers(nbrs.size)])
        self.attempts[u] += 1
        record = [self.now, v, False]  # start, receiver, corrupted
        # a new transmission corrupts any ongoing reception it covers, and
        # is itself corrupted by any active transmitter covering v
        for w, rec in self._active.items():
            if self._covers[u, rec[1]]:
                rec[2] = True
            if self._covers[w, v] or w == v:
                record[2] = True
        if v in self._active:  # receiver itself is busy transmitting
            record[2] = True
        self._active[u] = record
        self.schedule(self.tx_time, lambda: self._end_transmission(u))

    def _end_transmission(self, u: int) -> None:
        _, v, corrupted = self._active.pop(u)
        if corrupted:
            self.rx_collision[v] += 1
        else:
            self.rx_ok[v] += 1

    # -- node behaviour --------------------------------------------------------
    def _attempt(self, u: int) -> None:
        if u in self._active:
            # still sending the previous packet: try again afterwards
            self.schedule(self.tx_time, lambda: self._attempt(u))
            return
        if self._channel_busy_at(u):
            self.deferrals[u] += 1
            self.schedule(
                float(self.rng.exponential(self.backoff_mean)),
                lambda: self._attempt(u),
            )
            return
        self._begin_transmission(u)

    def _arrival(self, u: int) -> None:
        self._attempt(u)
        self.schedule(
            float(self.rng.exponential(1.0 / self.arrival_rate)),
            lambda: self._arrival(u),
        )

    # -- entry point -------------------------------------------------------------
    def run_for(self, duration: float) -> CsmaResult:
        """Advance the network by ``duration`` time units; report cumulative
        tallies.

        ``duration`` is *relative* to the current clock, so consecutive
        calls continue the same trajectory: ``run_for(a)`` then
        ``run_for(b)`` visits exactly the states of a single
        ``run_for(a + b)`` (the seeded-determinism regression tests in
        ``tests/test_sim_csma.py`` hold this line). The per-node arrival
        processes — Poisson with rate ``arrival_rate`` in *packets per
        unit time per node*, i.e. i.i.d. ``Exponential(1/arrival_rate)``
        inter-arrival gaps — are seeded once, on the first call.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not self._started:
            self._started = True
            if self.arrival_rate > 0:
                for u in range(self.topology.n):
                    if self._neighbors[u].size == 0:
                        continue
                    self.schedule(
                        float(self.rng.exponential(1.0 / self.arrival_rate)),
                        lambda u=u: self._arrival(u),
                    )
        self._horizon += duration
        self.run(until=self._horizon)
        return CsmaResult(
            duration=self._horizon,
            attempts=self.attempts.copy(),
            rx_ok=self.rx_ok.copy(),
            rx_collision=self.rx_collision.copy(),
            deferrals=self.deferrals.copy(),
            meta={
                "arrival_rate": self.arrival_rate,
                "tx_time": self.tx_time,
            },
        )
