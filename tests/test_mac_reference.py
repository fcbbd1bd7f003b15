"""Differential suite: the slotted MAC engines against frozen references.

2.0.0 deleted the 1.x slotted-ALOHA engines. The references below are
their ``run`` loops as they were, kept inline and test-only:

- ``RefSlottedAloha`` — ``repro.sim.slotted.SlottedAlohaSimulator``;
- ``RefSinrSlotted`` — ``repro.sim.sinr.SinrSlottedSimulator``;
- ``RefBebAloha`` — ``repro.sim.backoff._LegacyBebAlohaSimulator``.

The first two must equal ``MacSimulator`` under the plain slotted-ALOHA
configuration the experiments use (:func:`slotted_aloha`), the third
``SaturatedAlohaSimulator(policy="beb")``: the same per-node arrays,
bit for bit, from the same seed.

``RefMacSimulator`` is the full queued engine's slot loop as it was
before ``MacSimulator.run`` moved to a wake-up calendar: every
slot visited all ``n`` nodes. The calendar engine must return the same
``MacResult`` — every tally array and every per-node delay array — over
the whole configuration grid below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.sim_collisions import slotted_aloha
from repro.geometry.generators import (
    exponential_chain,
    random_udg_connected,
    uniform_chain,
)
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.interference.receiver import RTOL, coverage_matrix, node_interference
from repro.mac import (
    BACKOFF_POLICIES,
    MacConfig,
    MacResult,
    MacSimulator,
    SaturatedAlohaSimulator,
)
from repro.mac.policies import BackoffState, make_policy
from repro.mac.saturated import BUSY_EWMA_ALPHA
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build
from repro.utils import as_generator

# -- frozen references ---------------------------------------------------------


def _ref_covers(topology):
    pos = topology.positions
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    covers = d <= (topology.radii * (1.0 + RTOL))[:, None]
    np.fill_diagonal(covers, False)
    return covers


def _ref_neighbors(topology):
    return [
        np.array(sorted(topology.neighbors(u)), dtype=np.int64)
        for u in range(topology.n)
    ]


class RefSlottedAloha:
    """Slotted ALOHA over disk interference, per-slot probability ``p``."""

    def __init__(self, topology, *, p=0.1):
        self.topology = topology
        p_arr = np.full(topology.n, float(p))
        p_arr[topology.degrees == 0] = 0.0
        self.p = p_arr
        self._neighbors = _ref_neighbors(topology)
        self._covers = _ref_covers(topology)

    def run(self, n_slots, *, seed=None):
        rng = as_generator(seed)
        n = self.topology.n
        attempts = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_collision = np.zeros(n, dtype=np.int64)
        rx_half = np.zeros(n, dtype=np.int64)
        tx_ok = np.zeros(n, dtype=np.int64)
        for _ in range(n_slots):
            tx_mask = rng.random(n) < self.p
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            cover_count = self._covers[senders].sum(axis=0)
            for u in senders:
                nbrs = self._neighbors[u]
                v = int(nbrs[rng.integers(nbrs.size)])
                if tx_mask[v]:
                    rx_half[v] += 1
                elif cover_count[v] == 1:
                    rx_ok[v] += 1
                    tx_ok[u] += 1
                else:
                    rx_collision[v] += 1
        return {
            "attempts": attempts,
            "rx_ok": rx_ok,
            "rx_collision": rx_collision,
            "rx_half_duplex": rx_half,
            "tx_ok": tx_ok,
        }


class RefSinrSlotted:
    """Slotted ALOHA under SINR reception (default physics constants)."""

    def __init__(
        self, topology, *, alpha=3.0, beta=1.5, noise=1.0, margin=2.0, p=0.1
    ):
        self.topology = topology
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.noise = float(noise)
        n = topology.n
        self.p = np.full(n, float(p))
        self.p[topology.degrees == 0] = 0.0
        self._neighbors = _ref_neighbors(topology)
        self._power = (
            float(margin)
            * self.beta
            * self.noise
            * np.maximum(topology.radii, 1e-300) ** self.alpha
        )
        self._power[topology.degrees == 0] = 0.0
        pos = topology.positions
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        np.fill_diagonal(d, np.inf)
        self._gain = d**-self.alpha

    def run(self, n_slots, *, seed=None):
        rng = as_generator(seed)
        n = self.topology.n
        attempts = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_failed = np.zeros(n, dtype=np.int64)
        for _ in range(n_slots):
            tx_mask = rng.random(n) < self.p
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            rx_power = self._power[senders] @ self._gain[senders]
            for u in senders:
                nbrs = self._neighbors[u]
                v = int(nbrs[rng.integers(nbrs.size)])
                if tx_mask[v]:
                    rx_failed[v] += 1
                    continue
                signal = self._power[u] * self._gain[u, v]
                interference = rx_power[v] - signal
                sinr = signal / (self.noise + interference)
                if sinr >= self.beta:
                    rx_ok[v] += 1
                else:
                    rx_failed[v] += 1
        return {"attempts": attempts, "rx_ok": rx_ok, "rx_failed": rx_failed}


class RefBebAloha:
    """Saturated slotted ALOHA with binary exponential backoff."""

    def __init__(self, topology, *, cw_min=2, cw_max=256):
        self.topology = topology
        self.cw_min = int(cw_min)
        self.cw_max = int(cw_max)
        self._neighbors = _ref_neighbors(topology)
        self._covers = _ref_covers(topology)

    def run(self, n_slots, *, seed=None):
        rng = as_generator(seed)
        n = self.topology.n
        active = self.topology.degrees > 0
        cw = np.full(n, self.cw_min, dtype=np.int64)
        wait = np.zeros(n, dtype=np.int64)
        for u in range(n):
            if active[u]:
                wait[u] = rng.integers(cw[u])
        attempts = np.zeros(n, dtype=np.int64)
        deliveries = np.zeros(n, dtype=np.int64)
        retransmissions = np.zeros(n, dtype=np.int64)
        pending_retx = np.zeros(n, dtype=np.int64)
        cw_sum = np.zeros(n, dtype=np.float64)
        for _ in range(n_slots):
            tx_mask = active & (wait == 0)
            wait[active & (wait > 0)] -= 1
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
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
                    cw[u] = self.cw_min
                else:
                    pending_retx[u] += 1
                    cw[u] = min(cw[u] * 2, self.cw_max)
                wait[u] = rng.integers(cw[u])
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_cw = np.where(deliveries > 0, cw_sum / deliveries, np.nan)
        return {
            "attempts": attempts,
            "deliveries": deliveries,
            "retransmissions": retransmissions,
            "mean_cw": mean_cw,
        }


class RefMacSimulator:
    """The queued engine's per-node slot loop as it was before the
    wake-up calendar: ``MacSimulator.run`` minus its ``obs`` spans and
    counters. Every slot scans all ``n`` nodes and counts each queued,
    idle node's silence and wait down by one."""

    def __init__(self, topology, *, policy="beb", config=None, **policy_kwargs):
        self.topology = topology
        self.policy = make_policy(policy, **policy_kwargs)
        self.config = config if config is not None else MacConfig()
        self._neighbors = _ref_neighbors(topology)
        self._covers = _ref_covers(topology)
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
            np.fill_diagonal(d, np.inf)
            self._gain = d**-cfg.alpha

    def run(self, n_slots: int, *, seed=None) -> MacResult:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        cfg = self.config
        policy = self.policy
        rng = as_generator(seed)
        n = self.topology.n
        active = self.topology.degrees > 0

        queues: list[list[int]] = [[] for _ in range(n)]
        window = np.full(n, policy.initial_window(), dtype=np.int64)
        wait = np.zeros(n, dtype=np.int64)
        streak = np.zeros(n, dtype=np.int64)  # consecutive head failures
        silence = np.zeros(n, dtype=np.int64)
        busy = np.zeros(n, dtype=np.float64)
        tx_left = np.zeros(n, dtype=np.int64)
        tx_recv = np.full(n, -1, dtype=np.int64)
        tx_interf = np.zeros(n, dtype=bool)
        tx_busy_rx = np.zeros(n, dtype=bool)

        arrivals = np.zeros(n, dtype=np.int64)
        delivered = np.zeros(n, dtype=np.int64)
        dropped_queue = np.zeros(n, dtype=np.int64)
        dropped_retry = np.zeros(n, dtype=np.int64)
        lost = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        retransmissions = np.zeros(n, dtype=np.int64)
        deferrals = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_collision = np.zeros(n, dtype=np.int64)
        rx_busy = np.zeros(n, dtype=np.int64)
        delays: list[list[int]] = [[] for _ in range(n)]

        for u in range(n):
            if active[u]:
                wait[u] = rng.integers(window[u])

        for t in range(n_slots):
            # -- 1. arrivals (open loop: sources never look at queues)
            if cfg.traffic == "bernoulli":
                fresh = (rng.random(n) < cfg.load).astype(np.int64)
            elif cfg.traffic == "poisson":
                fresh = rng.poisson(cfg.load, n)
            else:  # saturated: refill empty queues
                fresh = np.zeros(n, dtype=np.int64)
                for u in range(n):
                    if active[u] and not queues[u]:
                        fresh[u] = 1
            fresh[~active] = 0
            for u in np.nonzero(fresh)[0]:
                k = int(fresh[u])
                arrivals[u] += k
                room = cfg.queue_limit - len(queues[u])
                take = min(k, max(room, 0))
                queues[u].extend([t] * take)
                dropped_queue[u] += k - take

            # -- 2. carrier sense + transmission starts
            ongoing = tx_left > 0
            if cfg.mode == "csma" and ongoing.any():
                audible = self._covers[ongoing].any(axis=0)
            else:
                audible = None
            for u in range(n):
                if not active[u] or tx_left[u] > 0 or not queues[u]:
                    continue
                if silence[u] > 0:
                    silence[u] -= 1
                    continue
                if wait[u] > 0:
                    wait[u] -= 1
                    continue
                if audible is not None and audible[u]:
                    deferrals[u] += 1
                    wait[u] = 1 + rng.integers(window[u])
                    continue
                nbrs = self._neighbors[u]
                v = int(nbrs[rng.integers(nbrs.size)])
                attempts[u] += 1
                tx_left[u] = cfg.tx_slots
                tx_recv[u] = v
                tx_interf[u] = False
                tx_busy_rx[u] = False

            # -- 3. per-slot interference resolution
            senders = np.nonzero(tx_left > 0)[0]
            if senders.size:
                tx_mask = tx_left > 0
                if cfg.capture == "disk":
                    cover_count = self._covers[senders].sum(axis=0)
                    for u in senders:
                        v = tx_recv[u]
                        if tx_mask[v]:
                            tx_busy_rx[u] = True
                        hit = cover_count[v] - (1 if self._covers[u, v] else 0)
                        if hit > 0:
                            tx_interf[u] = True
                else:  # sinr capture
                    rx_power = self._power[senders] @ self._gain[senders]
                    for u in senders:
                        v = tx_recv[u]
                        if tx_mask[v]:
                            tx_busy_rx[u] = True
                            continue
                        signal = self._power[u] * self._gain[u, v]
                        interference = rx_power[v] - signal
                        sinr = signal / (cfg.noise + interference)
                        if sinr < cfg.beta:
                            tx_interf[u] = True
                    cover_count = self._covers[senders].sum(axis=0)
                busy += BUSY_EWMA_ALPHA * ((cover_count > 0) - busy)
            else:
                busy *= 1.0 - BUSY_EWMA_ALPHA

            # -- 4. transmission ends: acks, retries, window updates
            for u in senders:
                tx_left[u] -= 1
                if tx_left[u] > 0:
                    continue
                v = int(tx_recv[u])
                tx_recv[u] = -1
                corrupted = tx_interf[u] or tx_busy_rx[u]
                if tx_busy_rx[u]:
                    rx_busy[v] += 1
                elif tx_interf[u]:
                    rx_collision[v] += 1
                else:
                    rx_ok[v] += 1
                silence[u] = cfg.silence_slots
                state = BackoffState(window=int(window[u]), busy=float(busy[u]))
                if not cfg.ack:
                    # fire-and-forget: one attempt per packet, the
                    # sender never learns the outcome
                    if not corrupted:
                        delivered[u] += 1
                        delays[u].append(t - queues[u][0] + 1)
                    else:
                        lost[u] += 1
                    queues[u].pop(0)
                    window[u] = policy.next_window(0, state)
                elif not corrupted:
                    delivered[u] += 1
                    retransmissions[u] += int(streak[u])
                    delays[u].append(t - queues[u][0] + 1)
                    queues[u].pop(0)
                    streak[u] = 0
                    window[u] = policy.next_window(0, state)
                else:
                    streak[u] += 1
                    window[u] = policy.next_window(int(streak[u]), state)
                    if streak[u] > cfg.max_retries:
                        dropped_retry[u] += 1
                        queues[u].pop(0)
                        streak[u] = 0
                if queues[u]:
                    wait[u] = rng.integers(window[u])

        queued_end = np.array([len(q) for q in queues], dtype=np.int64)
        return MacResult(
            n_slots=n_slots,
            arrivals=arrivals,
            delivered=delivered,
            dropped_queue=dropped_queue,
            dropped_retry=dropped_retry,
            lost=lost,
            attempts=attempts,
            retransmissions=retransmissions,
            deferrals=deferrals,
            rx_ok=rx_ok,
            rx_collision=rx_collision,
            rx_busy=rx_busy,
            queued_end=queued_end,
            delays=tuple(np.array(d, dtype=np.int64) for d in delays),
            meta={
                "policy": policy.name,
                "mode": cfg.mode,
                "traffic": cfg.traffic,
                "capture": cfg.capture,
                "load": cfg.load,
            },
        )


# -- instances -----------------------------------------------------------------


def _with_isolated(topology, extra):
    """``topology`` plus ``extra`` edgeless nodes far from everything."""
    far = topology.positions[:, 0].max() + 100.0
    pos = np.vstack(
        [topology.positions, [[far + 50.0 * i, 7.0] for i in range(extra)]]
    )
    return Topology(pos, topology.edges)


def _boundary():
    """Node 0 (radius 1) against a node at exactly ``1 + RTOL`` (covered)
    and one a float step beyond it (not covered)."""
    edge = 1.0 * (1.0 + RTOL)
    beyond = np.nextafter(edge, np.inf)
    pos = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, edge], [0.0, edge + 3.0],
         [0.0, -beyond], [0.0, -beyond - 3.0]]
    )
    return Topology(pos, [(0, 1), (2, 3), (4, 5)])


def _random(name, n, seed):
    udg = unit_disk_graph(random_udg_connected(n, side=3.5, seed=seed))
    return udg if name == "udg" else build(name, udg)


INSTANCES = {
    "exp_linear16": lambda: linear_chain(exponential_chain(16)),
    "exp_linear40": lambda: linear_chain(exponential_chain(40)),
    "uniform_linear30": lambda: linear_chain(uniform_chain(30)),
    "a_exp40": lambda: a_exp(exponential_chain(40)),
    "udg40": lambda: _random("udg", 40, 5),
    "emst60": lambda: _random("emst", 60, 7),
    "lmst60": lambda: _random("lmst", 60, 9),
    "nnf40": lambda: _random("nnf", 40, 11),
    "emst_isolated": lambda: _with_isolated(_random("emst", 30, 13), 3),
    "all_isolated": lambda: Topology(uniform_chain(5, spacing=3.0), []),
    "boundary": _boundary,
}

N_SLOTS = 300


def _topology(name):
    topology = INSTANCES[name]()
    if "isolated" in name:
        assert np.any(topology.degrees == 0)
    return topology


# -- the parity facts --------------------------------------------------------------


class TestRandomStream:
    def test_integers_of_one_consumes_no_random_bits(self):
        """The MAC engine draws ``integers(window)`` for every wait; with
        ``window=1`` that draw must leave the stream untouched, or the
        plain slotted-ALOHA configuration would drift off the reference
        after the first slot."""
        for seed in range(5):
            probe = np.random.default_rng(seed)
            clean = np.random.default_rng(seed)
            for _ in range(50):
                assert probe.integers(1) == 0
            np.testing.assert_array_equal(probe.random(8), clean.random(8))
            assert probe.integers(2**40) == clean.integers(2**40)

    def test_slotted_aloha_is_the_plain_configuration(self):
        sim = slotted_aloha(linear_chain(uniform_chain(4)), 0.3)
        assert sim.config == MacConfig(
            traffic="bernoulli", load=0.3, queue_limit=1, ack=False
        )
        assert sim.policy.name == "uniform"
        assert (sim.policy.window, sim.policy.cw_min) == (1, 1)

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_coverage_matrix_is_the_frozen_predicate(self, name):
        topology = _topology(name)
        covers = coverage_matrix(topology)
        np.testing.assert_array_equal(covers, _ref_covers(topology))
        np.testing.assert_array_equal(
            covers.sum(axis=0), node_interference(topology, method="brute")
        )


    def test_boundary_pairs_at_the_tolerance(self):
        covers = coverage_matrix(_boundary())
        assert covers[0, 2] and not covers[0, 4]


# -- differential runs -------------------------------------------------------------


class TestSlottedAloha:
    @pytest.mark.parametrize("p", [0.0, 0.15, 1.0])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_disk_capture_equals_reference(self, name, p):
        topology = _topology(name)
        ref = RefSlottedAloha(topology, p=p).run(N_SLOTS, seed=17)
        res = slotted_aloha(topology, p).run(N_SLOTS, seed=17)
        np.testing.assert_array_equal(res.attempts, ref["attempts"])
        np.testing.assert_array_equal(res.rx_ok, ref["rx_ok"])
        np.testing.assert_array_equal(res.rx_collision, ref["rx_collision"])
        np.testing.assert_array_equal(res.rx_busy, ref["rx_half_duplex"])
        np.testing.assert_array_equal(res.delivered, ref["tx_ok"])
        # fire-and-forget with a one-packet queue: nothing waits or retries
        assert res.conservation_ok
        assert not res.queued_end.any() and not res.dropped_queue.any()
        np.testing.assert_array_equal(res.lost, res.attempts - res.delivered)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, seed):
        topology = _topology("udg40")
        ref = RefSlottedAloha(topology, p=0.3).run(N_SLOTS, seed=seed)
        res = slotted_aloha(topology, 0.3).run(N_SLOTS, seed=seed)
        np.testing.assert_array_equal(res.rx_ok, ref["rx_ok"])
        np.testing.assert_array_equal(res.rx_collision, ref["rx_collision"])


class TestSinrSlotted:
    @pytest.mark.parametrize("p", [0.0, 0.15, 1.0])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_sinr_capture_equals_reference(self, name, p):
        topology = _topology(name)
        ref = RefSinrSlotted(topology, p=p).run(N_SLOTS, seed=23)
        res = slotted_aloha(topology, p, capture="sinr").run(N_SLOTS, seed=23)
        np.testing.assert_array_equal(res.attempts, ref["attempts"])
        np.testing.assert_array_equal(res.rx_ok, ref["rx_ok"])
        np.testing.assert_array_equal(
            res.rx_collision + res.rx_busy, ref["rx_failed"]
        )
        assert res.conservation_ok

    def test_non_default_physics(self):
        topology = _topology("emst60")
        ref = RefSinrSlotted(
            topology, alpha=4.0, beta=1.1, noise=0.5, margin=1.0, p=0.2
        ).run(N_SLOTS, seed=3)
        config = MacConfig(
            traffic="bernoulli",
            load=0.2,
            queue_limit=1,
            ack=False,
            capture="sinr",
            alpha=4.0,
            beta=1.1,
            noise=0.5,
            margin=1.0,
        )
        res = MacSimulator(
            topology, policy="uniform", window=1, cw_min=1, config=config
        ).run(N_SLOTS, seed=3)
        np.testing.assert_array_equal(res.rx_ok, ref["rx_ok"])
        np.testing.assert_array_equal(
            res.rx_collision + res.rx_busy, ref["rx_failed"]
        )


class TestSaturatedBeb:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_beb_equals_reference(self, name):
        topology = _topology(name)
        ref = RefBebAloha(topology).run(N_SLOTS, seed=29)
        res = SaturatedAlohaSimulator(topology, policy="beb", cw_max=256).run(
            N_SLOTS, seed=29
        )
        np.testing.assert_array_equal(res.attempts, ref["attempts"])
        np.testing.assert_array_equal(res.deliveries, ref["deliveries"])
        np.testing.assert_array_equal(res.retransmissions, ref["retransmissions"])
        np.testing.assert_array_equal(res.mean_cw, ref["mean_cw"])

    @pytest.mark.parametrize("cw_min,cw_max", [(1, 1), (1, 4), (8, 8), (2, 1024)])
    def test_window_bounds(self, cw_min, cw_max):
        topology = _topology("a_exp40")
        ref = RefBebAloha(topology, cw_min=cw_min, cw_max=cw_max).run(
            N_SLOTS, seed=31
        )
        res = SaturatedAlohaSimulator(
            topology, policy="beb", cw_min=cw_min, cw_max=cw_max
        ).run(N_SLOTS, seed=31)
        np.testing.assert_array_equal(res.deliveries, ref["deliveries"])
        np.testing.assert_array_equal(res.mean_cw, ref["mean_cw"])


# -- the full queued engine against its frozen slot loop ---------------------------

RESULT_ARRAYS = (
    "arrivals",
    "delivered",
    "dropped_queue",
    "dropped_retry",
    "lost",
    "attempts",
    "retransmissions",
    "deferrals",
    "rx_ok",
    "rx_collision",
    "rx_busy",
    "queued_end",
)

#: 3 topologies x 4 policies x the 192 configurations of GRID_CONFIGS
GRID_TOPOLOGIES = {
    "exp_linear12": lambda: linear_chain(exponential_chain(12)),
    "udg16": lambda: _random("udg", 16, 5),
    "nnf18_isolated": lambda: _with_isolated(_random("nnf", 18, 11), 2),
}
GRID_POLICIES = ("asb", "beb", "eied", "uniform")
GRID_CONFIGS = [
    MacConfig(
        mode=mode,
        traffic=traffic,
        capture=capture,
        ack=ack,
        tx_slots=tx_slots,
        duty_cycle=duty_cycle,
        load=load,
        max_retries=2,
    )
    for mode in ("aloha", "csma")
    for traffic in ("bernoulli", "poisson", "saturated")
    for capture in ("disk", "sinr")
    for ack in (True, False)
    for tx_slots in (1, 3)
    for duty_cycle in (1.0, 0.5)
    for load in (0.04, 0.3)
]
GRID_SLOTS = 80


def _assert_same_result(res, ref, context):
    assert isinstance(res, MacResult), context
    assert res.n_slots == ref.n_slots and res.meta == ref.meta, context
    for name in RESULT_ARRAYS:
        got, want = getattr(res, name), getattr(ref, name)
        assert got.dtype == want.dtype, (context, name)
        np.testing.assert_array_equal(got, want, err_msg=f"{context} {name}")
    assert len(res.delays) == len(ref.delays), context
    for node, (got, want) in enumerate(zip(res.delays, ref.delays)):
        assert got.dtype == want.dtype, (context, node)
        np.testing.assert_array_equal(got, want, err_msg=f"{context} node {node}")


def _assert_engines_agree(topology, n_slots, seed, *, policy="beb", config=None, **kw):
    res = MacSimulator(topology, policy=policy, config=config, **kw).run(
        n_slots, seed=seed
    )
    ref = RefMacSimulator(topology, policy=policy, config=config, **kw).run(
        n_slots, seed=seed
    )
    _assert_same_result(res, ref, (policy, kw, config, n_slots, seed))
    return res


class TestFullEngine:
    @pytest.mark.parametrize("policy", GRID_POLICIES)
    @pytest.mark.parametrize("name", sorted(GRID_TOPOLOGIES))
    def test_configuration_grid(self, name, policy):
        topology = GRID_TOPOLOGIES[name]()
        for i, config in enumerate(GRID_CONFIGS):
            _assert_engines_agree(
                topology, GRID_SLOTS, 100 + i, policy=policy, config=config
            )

    @pytest.mark.parametrize("policy", sorted(BACKOFF_POLICIES))
    @pytest.mark.parametrize("mode", ["aloha", "csma"])
    def test_every_policy(self, policy, mode):
        topology = _topology("udg40")
        for traffic, load in (("poisson", 0.08), ("saturated", 0.0)):
            config = MacConfig(mode=mode, traffic=traffic, load=load, tx_slots=2)
            _assert_engines_agree(
                topology, N_SLOTS, 5, policy=policy, config=config
            )

    def test_asb_reads_the_busy_average(self):
        # ASB's gamma acts only through the busy EWMA: two gammas that
        # give different runs prove the parity above covered a live EWMA
        topology = _topology("udg40")
        config = MacConfig(traffic="saturated", tx_slots=2)
        runs = [
            _assert_engines_agree(
                topology, N_SLOTS, 7, policy="asb", config=config, gamma=gamma
            )
            for gamma in (0.5, 8.0)
        ]
        assert not np.array_equal(runs[0].attempts, runs[1].attempts)

    @pytest.mark.parametrize("name", ["emst_isolated", "all_isolated", "boundary"])
    @pytest.mark.parametrize("capture", ["disk", "sinr"])
    @pytest.mark.parametrize("mode", ["aloha", "csma"])
    def test_isolated_and_boundary_instances(self, name, capture, mode):
        topology = _topology(name)
        for traffic in ("poisson", "saturated"):
            config = MacConfig(
                mode=mode, traffic=traffic, load=0.2, capture=capture, tx_slots=2
            )
            res = _assert_engines_agree(topology, N_SLOTS, 3, config=config)
            isolated = topology.degrees == 0
            assert not res.arrivals[isolated].any()
            assert not res.attempts[isolated].any()

    def test_boundary_pair_collides_only_inside_the_tolerance(self):
        # node 0's unit disk reaches receiver 2 at exactly 1 + RTOL but not
        # receiver 4 one float step further; the short 3 -> 2 and 5 -> 4
        # links cover nothing else, so only 2 can see collisions
        edge = 1.0 + RTOL
        beyond = np.nextafter(edge, np.inf)
        pos = np.array(
            [[0.0, 0.0], [-1.0, 0.0], [0.0, edge], [0.0, edge + 0.5],
             [0.0, -beyond], [0.0, -beyond - 0.5]]
        )
        topology = Topology(pos, [(0, 1), (2, 3), (4, 5)])
        config = MacConfig(traffic="poisson", load=0.5)
        res = _assert_engines_agree(topology, N_SLOTS, 1, config=config)
        assert res.rx_collision[2] > 0
        assert res.rx_collision[4] == 0

    @pytest.mark.parametrize("n_slots", [0, 1])
    @pytest.mark.parametrize("traffic", ["bernoulli", "poisson", "saturated"])
    def test_empty_and_single_slot_runs(self, n_slots, traffic):
        config = MacConfig(traffic=traffic, load=1.0)
        res = _assert_engines_agree(_topology("udg40"), n_slots, 9, config=config)
        assert res.conservation_ok

    @pytest.mark.parametrize("p", [0.0, 0.15, 1.0])
    @pytest.mark.parametrize("capture", ["disk", "sinr"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_slotted_aloha_configuration(self, name, capture, p):
        topology = _topology(name)
        sim = slotted_aloha(topology, p, capture=capture)
        res = sim.run(N_SLOTS, seed=17)
        ref = RefMacSimulator(
            topology, policy=sim.policy, config=sim.config
        ).run(N_SLOTS, seed=17)
        _assert_same_result(res, ref, (name, capture, p))
