"""Slotted contention engine: traffic, queues, backoff, capture, acks.

The dynamic-workload counterpart of the static receiver-centric measure:
time is slotted, each node runs an open-loop traffic source into a
bounded FIFO queue, and the head-of-line packet contends for the channel
under a pluggable backoff policy (:data:`repro.mac.BACKOFF_POLICIES`).
Reception is resolved per slot under one of two physical models:

- ``capture="disk"`` — a reception at ``v`` fails iff a second
  concurrent transmitter's disk covers ``v`` (exactly what the paper's
  ``I(v)`` counts in the worst case), or ``v`` is itself transmitting;
- ``capture="sinr"`` — the SINR-threshold capture effect: a reception
  survives concurrent transmitters as long as
  ``P_u g(u,v) / (N + sum_w P_w g(w,v)) >= beta``, with the same
  power/path-loss conventions as Aslanyan's SINR slotted model
  (arXiv:1107.4222): each node transmits with the minimum power closing
  its farthest link at threshold, times a link-budget margin.

With ``mode="csma"`` a node senses before transmitting and defers
(counted, with a fresh backoff draw) while any *audible* transmission
started in an earlier slot is still on the air — carrier sensing is
receiver-blind, so hidden-terminal collisions persist exactly where the
receiver-centric measure predicts contention. Sensing needs
``tx_slots >= 2`` to observe anything: with single-slot packets every
transmission starts and ends inside one slot and ``csma`` degenerates to
slotted ALOHA.

Delay accounting is coordinated-omission-free: the per-packet delay is
measured from source *arrival* (the open-loop source enqueues on its own
schedule, regardless of queue state) to delivery, so a congested queue
cannot hide latency by slowing its own measurement clock. Percentiles
over these delays use the same nearest-rank methodology as
:mod:`repro.serve.loadgen`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.interference.receiver import coverage_matrix
from repro.mac.policies import BackoffPolicy, BackoffState, make_policy
from repro.mac.saturated import BUSY_EWMA_ALPHA
from repro.model.topology import Topology
from repro.utils import as_generator

TRAFFIC_KINDS = ("bernoulli", "poisson", "saturated")
CAPTURE_KINDS = ("disk", "sinr")
MAC_MODES = ("aloha", "csma")


@dataclass(frozen=True, kw_only=True)
class MacConfig:
    """Frozen engine configuration (everything except topology + policy).

    ``load`` is the per-node offered load in *packets per slot*: the
    Bernoulli per-slot probability, or the Poisson mean of arrivals per
    slot (``traffic="poisson"`` may deliver several arrivals in one
    slot). ``traffic="saturated"`` ignores ``load`` and keeps every node
    permanently backlogged. ``duty_cycle`` caps airtime LoRa-style: after
    every transmission the node stays silent for
    ``ceil(tx_slots * (1/duty_cycle - 1))`` slots. ``ack=True`` models
    instantaneous out-of-band acknowledgements — the sender learns each
    outcome and retransmits up to ``max_retries`` failures before
    dropping; ``ack=False`` is fire-and-forget (one attempt per packet,
    loss shows up only at receivers).
    """

    traffic: str = "poisson"
    load: float = 0.05
    queue_limit: int = 8
    mode: str = "aloha"
    tx_slots: int = 1
    duty_cycle: float = 1.0
    ack: bool = True
    max_retries: int = 7
    capture: str = "disk"
    alpha: float = 3.0
    beta: float = 1.5
    noise: float = 1.0
    margin: float = 2.0

    def __post_init__(self):
        if self.traffic not in TRAFFIC_KINDS:
            raise ValueError(f"traffic must be one of {TRAFFIC_KINDS}")
        if self.mode not in MAC_MODES:
            raise ValueError(f"mode must be one of {MAC_MODES}")
        if self.capture not in CAPTURE_KINDS:
            raise ValueError(f"capture must be one of {CAPTURE_KINDS}")
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.traffic == "bernoulli" and self.load > 1:
            raise ValueError("a bernoulli load is a probability: need load <= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.tx_slots < 1:
            raise ValueError("tx_slots must be >= 1")
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must lie in (0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.alpha <= 0 or self.beta <= 0 or self.noise <= 0:
            raise ValueError("alpha, beta and noise must be positive")
        if self.margin < 1:
            raise ValueError("margin must be >= 1")

    @property
    def silence_slots(self) -> int:
        """Post-transmission hold-off implied by the duty cycle."""
        return int(math.ceil(self.tx_slots * (1.0 / self.duty_cycle - 1.0)))


@dataclass(frozen=True)
class MacResult:
    """Per-node tallies and delays of one contention run.

    Offered-load conservation holds exactly for every node::

        arrivals == delivered + dropped_queue + dropped_retry + lost
                    + queued_end

    (``queued_end`` includes the head-of-line packet still in service at
    the horizon; ``lost`` is only nonzero in fire-and-forget mode,
    ``ack=False``, where a corrupted packet is simply gone).
    """

    n_slots: int
    #: packets generated by each node's source (including ones dropped at
    #: a full queue)
    arrivals: np.ndarray
    #: packets delivered end-to-end (acknowledged receptions)
    delivered: np.ndarray
    #: packets dropped on arrival at a full queue
    dropped_queue: np.ndarray
    #: packets dropped after exceeding the retry cap
    dropped_retry: np.ndarray
    #: fire-and-forget (``ack=False``) packets transmitted but corrupted
    lost: np.ndarray
    #: transmissions started
    attempts: np.ndarray
    #: attempts beyond the first per delivered packet
    retransmissions: np.ndarray
    #: carrier-sense deferrals (csma mode)
    deferrals: np.ndarray
    #: receptions addressed to each node, by outcome
    rx_ok: np.ndarray
    rx_collision: np.ndarray
    rx_busy: np.ndarray
    #: packets still queued (head included) at the horizon
    queued_end: np.ndarray
    #: per node: delays (slots, arrival -> delivery inclusive) of its
    #: delivered packets, in delivery order
    delays: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def throughput(self) -> np.ndarray:
        """Per node: delivered packets per slot."""
        return self.delivered / max(self.n_slots, 1)

    @property
    def offered(self) -> np.ndarray:
        """Per node: generated packets per slot."""
        return self.arrivals / max(self.n_slots, 1)

    @property
    def collision_rate(self) -> np.ndarray:
        """Per receiver: fraction of addressed receptions lost to
        interference. Half-duplex (receiver-busy) losses are excluded
        from the denominator — they are a MAC property, not an
        interference one. NaN where never addressed."""
        addressed = self.rx_ok + self.rx_collision
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(addressed > 0, self.rx_collision / addressed, np.nan)

    @property
    def conservation_ok(self) -> bool:
        """Exact per-node offered-load conservation (see class docs)."""
        accounted = (
            self.delivered
            + self.dropped_queue
            + self.dropped_retry
            + self.lost
            + self.queued_end
        )
        return bool(np.array_equal(self.arrivals, accounted))

    def pooled_delays(self) -> np.ndarray:
        """All delivered-packet delays, pooled across nodes (unsorted)."""
        if not self.delays:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([np.asarray(d, dtype=np.int64) for d in self.delays])

    def delay_percentiles(self, qs=(50, 95, 99)) -> dict[str, float]:
        """Nearest-rank percentiles of the pooled delay distribution,
        same methodology as ``repro.serve.loadgen`` (NaN when nothing
        was delivered)."""
        from repro.serve.loadgen import percentile

        pooled = sorted(self.pooled_delays().tolist())
        return {f"p{q:g}": float(percentile(pooled, q)) for q in qs}


def _bitset(mask: np.ndarray) -> int:
    """Python-int bitset of a boolean vector (bit i <-> entry i)."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unpack(bits: int, n: int) -> np.ndarray:
    """Length-``n`` 0/1 ``uint8`` vector of a bitset (inverse of _bitset)."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


class MacSimulator:
    """Slotted contention engine over a fixed topology.

    Parameters
    ----------
    topology:
        Communication topology; transmissions use its derived radii.
    policy:
        Backoff-policy name from :data:`repro.mac.BACKOFF_POLICIES` or a
        configured instance (``policy_kwargs`` configure a named policy).
    config:
        Engine options; see :class:`MacConfig`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        policy: str | BackoffPolicy = "beb",
        config: MacConfig | None = None,
        **policy_kwargs,
    ):
        self.topology = topology
        self.policy = make_policy(policy, **policy_kwargs)
        self.config = config if config is not None else MacConfig()
        if not isinstance(self.config, MacConfig):
            raise TypeError("config must be a MacConfig")
        n = topology.n
        self._neighbors = [sorted(topology.neighbors(u)) for u in range(n)]
        # Python-int bitsets: the nodes u's disk covers, the nodes whose
        # disks cover v
        covers = coverage_matrix(topology)
        self._cover_bits = [_bitset(row) for row in covers]
        self._coverers = [_bitset(column) for column in covers.T]
        if self.config.capture == "sinr":
            cfg = self.config
            self._power = (
                cfg.margin
                * cfg.beta
                * cfg.noise
                * np.maximum(topology.radii, 1e-300) ** cfg.alpha
            )
            self._power[topology.degrees == 0] = 0.0
            pos = topology.positions
            diff = pos[:, None, :] - pos[None, :, :]
            d = np.hypot(diff[..., 0], diff[..., 1])
            np.fill_diagonal(d, np.inf)  # no self-reception; avoids 0**-alpha
            self._gain = d**-cfg.alpha

    def run(self, n_slots: int, *, seed=None) -> MacResult:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        cfg = self.config
        policy = self.policy
        rng = as_generator(seed)
        integers = rng.integers

        def draw(high: int) -> int:
            # integers(1) is 0 and consumes no random bits
            return int(integers(high)) if high > 1 else 0

        n = self.topology.n
        active = self.topology.degrees > 0
        inactive = np.flatnonzero(~active)
        neighbors = self._neighbors
        cover_bits, coverers = self._cover_bits, self._coverers
        tx_slots, silence = cfg.tx_slots, cfg.silence_slots
        saturated = cfg.traffic == "saturated"

        # A queued, idle node only counts its silence and then its wait
        # down, so it is filed in ``calendar`` under the slot it becomes
        # due; a node whose queue is empty is frozen with ``hold`` slots
        # of that countdown left.
        calendar: dict[int, list[int]] = {}
        hold = [0] * n
        queues = [deque() for _ in range(n)]
        window = [policy.initial_window()] * n
        streak = [0] * n  # consecutive head failures
        busy = np.zeros(n, dtype=np.float64)
        on_air: list[int] = []  # ascending; transmissions still running
        tx_left = [0] * n
        tx_recv = [-1] * n
        tx_interf = [False] * n
        tx_busy_rx = [False] * n
        refill = np.flatnonzero(active).tolist()  # saturated: empty queues

        arrivals = [0] * n
        delivered = [0] * n
        dropped_queue = [0] * n
        dropped_retry = [0] * n
        lost = [0] * n
        attempts = [0] * n
        retransmissions = [0] * n
        deferrals = [0] * n
        rx_ok = [0] * n
        rx_collision = [0] * n
        rx_busy = [0] * n
        delays: list[list[int]] = [[] for _ in range(n)]

        for u in refill:
            hold[u] = draw(window[u])

        with obs.span(
            "mac.run",
            policy=policy.name,
            mode=cfg.mode,
            traffic=cfg.traffic,
            capture=cfg.capture,
            n=n,
            slots=n_slots,
        ) as sp:
            for t in range(n_slots):
                # -- 1. arrivals (open loop: sources never look at queues)
                if saturated:  # refill the queues emptied last slot
                    fresh, counts = refill, [1] * len(refill)
                    refill = []
                else:
                    if cfg.traffic == "bernoulli":
                        drawn = (rng.random(n) < cfg.load).astype(np.int64)
                    else:
                        drawn = rng.poisson(cfg.load, n)
                    drawn[inactive] = 0
                    fresh = drawn.nonzero()[0]
                    counts = drawn[fresh].tolist()
                    fresh = fresh.tolist()
                for u, k in zip(fresh, counts):
                    arrivals[u] += k
                    q = queues[u]
                    take = min(k, cfg.queue_limit - len(q))
                    if take and not q:
                        calendar.setdefault(t + hold[u], []).append(u)
                    q.extend([t] * take)
                    dropped_queue[u] += k - take

                # -- 2. carrier sense + transmission starts, due nodes in
                # ascending order (the order of their draws)
                audible = 0
                if cfg.mode == "csma":
                    for u in on_air:
                        audible |= cover_bits[u]
                started = []
                for u in sorted(calendar.pop(t, ())):
                    if audible >> u & 1:
                        deferrals[u] += 1  # waits 1 + draw slots from t + 1
                        due = t + 2 + draw(window[u])
                        calendar.setdefault(due, []).append(u)
                        continue
                    nbrs = neighbors[u]
                    attempts[u] += 1
                    tx_left[u] = tx_slots
                    tx_recv[u] = nbrs[draw(len(nbrs))]
                    tx_interf[u] = False
                    tx_busy_rx[u] = False
                    started.append(u)

                # -- 3. per-slot interference resolution
                # ascending, as the draws below and the SINR power sum need
                senders = sorted(on_air + started) if on_air else started
                if senders:
                    on_bits = covered = 0
                    for u in senders:
                        on_bits |= 1 << u
                        covered |= cover_bits[u]
                    if cfg.capture == "disk":
                        for u in senders:
                            v = tx_recv[u]
                            if tx_left[v]:
                                tx_busy_rx[u] = True
                            if coverers[v] & on_bits & ~(1 << u):
                                tx_interf[u] = True
                    else:  # sinr capture
                        rx_power = self._power[senders] @ self._gain[senders]
                        for u in senders:
                            v = tx_recv[u]
                            if tx_left[v]:
                                tx_busy_rx[u] = True
                                continue
                            signal = self._power[u] * self._gain[u, v]
                            interference = rx_power[v] - signal
                            sinr = signal / (cfg.noise + interference)
                            if sinr < cfg.beta:
                                tx_interf[u] = True
                    busy += BUSY_EWMA_ALPHA * (_unpack(covered, n) - busy)
                else:
                    busy *= 1.0 - BUSY_EWMA_ALPHA

                # -- 4. transmission ends: acks, retries, window updates
                on_air = []
                for u in senders:
                    tx_left[u] -= 1
                    if tx_left[u]:
                        on_air.append(u)
                        continue
                    v = tx_recv[u]
                    corrupted = tx_interf[u] or tx_busy_rx[u]
                    if tx_busy_rx[u]:
                        rx_busy[v] += 1
                    elif tx_interf[u]:
                        rx_collision[v] += 1
                    else:
                        rx_ok[v] += 1
                    state = BackoffState(window=window[u], busy=float(busy[u]))
                    q = queues[u]
                    if not cfg.ack:
                        # fire-and-forget: one attempt per packet, the
                        # sender never learns the outcome
                        if not corrupted:
                            delivered[u] += 1
                            delays[u].append(t - q[0] + 1)
                        else:
                            lost[u] += 1
                        q.popleft()
                        window[u] = policy.next_window(0, state)
                    elif not corrupted:
                        delivered[u] += 1
                        retransmissions[u] += streak[u]
                        delays[u].append(t - q.popleft() + 1)
                        streak[u] = 0
                        window[u] = policy.next_window(0, state)
                    else:
                        streak[u] += 1
                        window[u] = policy.next_window(streak[u], state)
                        if streak[u] > cfg.max_retries:
                            dropped_retry[u] += 1
                            q.popleft()
                            streak[u] = 0
                    if q:  # silence, then the wait, from t + 1
                        due = t + 1 + silence + draw(window[u])
                        calendar.setdefault(due, []).append(u)
                    else:
                        hold[u] = silence
                        if saturated:
                            refill.append(u)

            obs.count("mac.slots", n_slots)
            obs.count("mac.attempts", sum(attempts))
            obs.count("mac.delivered", sum(delivered))
            obs.count("mac.collisions", sum(rx_collision))
            obs.count("mac.drops", sum(dropped_queue) + sum(dropped_retry))
            if any(deferrals):
                obs.count("mac.deferrals", sum(deferrals))
            sp.set(
                attempts=sum(attempts),
                delivered=sum(delivered),
                collisions=sum(rx_collision),
            )

        return MacResult(
            n_slots=n_slots,
            arrivals=np.array(arrivals, dtype=np.int64),
            delivered=np.array(delivered, dtype=np.int64),
            dropped_queue=np.array(dropped_queue, dtype=np.int64),
            dropped_retry=np.array(dropped_retry, dtype=np.int64),
            lost=np.array(lost, dtype=np.int64),
            attempts=np.array(attempts, dtype=np.int64),
            retransmissions=np.array(retransmissions, dtype=np.int64),
            deferrals=np.array(deferrals, dtype=np.int64),
            rx_ok=np.array(rx_ok, dtype=np.int64),
            rx_collision=np.array(rx_collision, dtype=np.int64),
            rx_busy=np.array(rx_busy, dtype=np.int64),
            queued_end=np.array([len(q) for q in queues], dtype=np.int64),
            delays=tuple(np.array(d, dtype=np.int64) for d in delays),
            meta={
                "policy": policy.name,
                "mode": cfg.mode,
                "traffic": cfg.traffic,
                "capture": cfg.capture,
                "load": cfg.load,
            },
        )
