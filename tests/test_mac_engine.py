"""Tests for the MAC contention engines (repro.mac)."""

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected
from repro.interference.receiver import node_interference
from repro.mac import (
    BACKOFF_POLICIES,
    MacConfig,
    MacResult,
    MacSimulator,
    SaturatedAlohaSimulator,
    interference_collision_spearman,
    jain_fairness,
    summarize,
)
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build


@pytest.fixture(scope="module")
def rand_topology():
    pos = random_udg_connected(36, side=3.2, seed=5)
    return unit_disk_graph(pos)


@pytest.fixture
def pair_topology():
    return Topology(np.array([[0.0, 0.0], [0.5, 0.0]]), [(0, 1)])


def _equal_results(a: MacResult, b: MacResult):
    for f in (
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
    ):
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f), err_msg=f)
    assert len(a.delays) == len(b.delays)
    for da, db in zip(a.delays, b.delays):
        np.testing.assert_array_equal(da, db)


class TestDeterminism:
    def test_same_seed_identical(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.06)
        a = MacSimulator(rand_topology, policy="beb", config=cfg).run(400, seed=9)
        b = MacSimulator(rand_topology, policy="beb", config=cfg).run(400, seed=9)
        _equal_results(a, b)

    def test_different_seeds_differ(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.06)
        a = MacSimulator(rand_topology, config=cfg).run(400, seed=1)
        b = MacSimulator(rand_topology, config=cfg).run(400, seed=2)
        assert not np.array_equal(a.arrivals, b.arrivals)

    @pytest.mark.parametrize("policy", sorted(BACKOFF_POLICIES))
    def test_saturated_deterministic_all_policies(self, rand_topology, policy):
        a = SaturatedAlohaSimulator(rand_topology, policy=policy).run(300, seed=4)
        b = SaturatedAlohaSimulator(rand_topology, policy=policy).run(300, seed=4)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.deliveries, b.deliveries)
        np.testing.assert_array_equal(a.retransmissions, b.retransmissions)
        assert a.attempts.sum() > 0


class TestConservation:
    """Offered-load conservation: arrivals == delivered + dropped + queued."""

    @pytest.mark.parametrize("case", range(8))
    def test_randomized_configs(self, rand_topology, case):
        rng = np.random.default_rng(100 + case)
        cfg = MacConfig(
            traffic=("bernoulli", "poisson", "saturated")[case % 3],
            load=float(rng.uniform(0.01, 0.5)),
            queue_limit=int(rng.integers(1, 6)),
            mode=("aloha", "csma")[case % 2],
            tx_slots=int(rng.integers(1, 4)),
            duty_cycle=float(rng.uniform(0.3, 1.0)),
            ack=bool(case % 2),
            max_retries=int(rng.integers(0, 5)),
            capture=("disk", "sinr")[(case // 2) % 2],
        )
        policy = sorted(BACKOFF_POLICIES)[case % len(BACKOFF_POLICIES)]
        res = MacSimulator(rand_topology, policy=policy, config=cfg).run(
            250, seed=case
        )
        assert res.conservation_ok, cfg
        assert np.all(res.queued_end <= cfg.queue_limit)
        # sender-side successes match receiver-side ok tallies
        assert res.delivered.sum() == res.rx_ok.sum()
        # every completed attempt has exactly one receiver outcome;
        # at most one attempt per node can still be on the air
        finished = res.rx_ok.sum() + res.rx_collision.sum() + res.rx_busy.sum()
        assert 0 <= res.attempts.sum() - finished <= rand_topology.n
        for d in res.delays:
            assert np.all(d >= 1)

    def test_zero_slots(self, rand_topology):
        res = MacSimulator(rand_topology).run(0, seed=0)
        assert res.conservation_ok
        assert res.arrivals.sum() == 0 and res.attempts.sum() == 0


class TestQueueAndDrops:
    def test_overload_drops_at_queue_limit(self, pair_topology):
        cfg = MacConfig(traffic="bernoulli", load=1.0, queue_limit=2)
        res = MacSimulator(pair_topology, policy="beb", config=cfg).run(
            300, seed=3
        )
        assert res.dropped_queue.sum() > 0
        assert np.all(res.queued_end <= 2)
        assert res.conservation_ok

    def test_retry_cap_drops(self):
        # two mutually-covering saturated nodes with window 1 collide on
        # every slot (each receiver is itself transmitting), so with acks
        # every packet dies at the retry cap
        t = Topology(np.array([[0.0, 0.0], [0.5, 0.0]]), [(0, 1)])
        cfg = MacConfig(traffic="saturated", max_retries=2)
        res = MacSimulator(
            t, policy="uniform", window=1, cw_min=1, config=cfg
        ).run(120, seed=1)
        assert res.delivered.sum() == 0
        assert res.dropped_retry.sum() > 0
        assert res.rx_busy.sum() > 0
        assert res.conservation_ok

    def test_no_ack_fire_and_forget(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.1, ack=False)
        res = MacSimulator(rand_topology, config=cfg).run(300, seed=6)
        assert res.dropped_retry.sum() == 0
        assert res.retransmissions.sum() == 0
        # corrupted fire-and-forget packets are tallied as lost, and the
        # receiver-side failures account for exactly those packets
        assert res.lost.sum() == res.rx_collision.sum() + res.rx_busy.sum()
        assert res.conservation_ok

    def test_ack_mode_never_loses(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.1, ack=True)
        res = MacSimulator(rand_topology, config=cfg).run(300, seed=6)
        assert res.lost.sum() == 0


class TestDutyCycle:
    def test_duty_cycle_caps_airtime(self, pair_topology):
        # window 1 + saturation means a node transmits whenever allowed;
        # duty 0.5 inserts one silent slot per 1-slot transmission
        full = MacConfig(traffic="saturated", duty_cycle=1.0, max_retries=0)
        half = MacConfig(traffic="saturated", duty_cycle=0.5, max_retries=0)
        r_full = MacSimulator(
            pair_topology, policy="uniform", window=1, cw_min=1, config=full
        ).run(200, seed=2)
        r_half = MacSimulator(
            pair_topology, policy="uniform", window=1, cw_min=1, config=half
        ).run(200, seed=2)
        assert r_full.attempts.sum() > r_half.attempts.sum()
        assert np.all(r_half.attempts <= 101)  # ceil(200 / 2) + startup


class TestCsmaMode:
    def test_sensing_defers(self, rand_topology):
        cfg = MacConfig(mode="csma", tx_slots=3, traffic="saturated")
        res = MacSimulator(rand_topology, policy="beb", config=cfg).run(
            200, seed=8
        )
        assert res.deferrals.sum() > 0

    def test_single_slot_packets_never_defer(self, rand_topology):
        # with tx_slots=1 nothing is ever "on the air" at sensing time,
        # so csma degenerates to slotted aloha
        cfg = MacConfig(mode="csma", tx_slots=1, traffic="saturated")
        res = MacSimulator(rand_topology, policy="beb", config=cfg).run(
            200, seed=8
        )
        assert res.deferrals.sum() == 0

    def test_hidden_terminal_collisions_persist(self):
        # A and C cannot hear each other but share receiver B: carrier
        # sensing is receiver-blind, so collisions at B survive csma
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        t = Topology(pos, [(0, 1), (1, 2)])
        cfg = MacConfig(mode="csma", tx_slots=3, traffic="saturated")
        res = MacSimulator(t, policy="uniform", window=2, config=cfg).run(
            300, seed=4
        )
        assert res.rx_collision[1] > 0


class TestCapture:
    def test_sinr_capture_at_high_budget_receiver(self):
        # A -> B has a high link budget (A's radius is 5x the A-B gap);
        # C's disk covers B, so the disk model kills every overlapping
        # reception at B, but C's signal at B is too weak to break SINR
        # capture: under sinr, B never sees an interference loss
        pos = np.array(
            [[0.0, 0.0], [0.2, 0.0], [0.0, -1.0], [1.15, 0.0], [2.15, 0.0]]
        )
        t = Topology(pos, [(0, 1), (0, 2), (3, 4)])
        disk = MacConfig(traffic="saturated", capture="disk")
        sinr = MacConfig(traffic="saturated", capture="sinr")
        r_disk = MacSimulator(t, policy="uniform", window=2, config=disk).run(
            400, seed=11
        )
        r_sinr = MacSimulator(t, policy="uniform", window=2, config=sinr).run(
            400, seed=11
        )
        assert r_disk.rx_collision[1] > 0
        assert r_sinr.rx_collision[1] == 0
        assert r_sinr.conservation_ok and r_disk.conservation_ok

    def test_isolated_pair_always_delivers_under_sinr(self, pair_topology):
        cfg = MacConfig(traffic="poisson", load=0.05, capture="sinr")
        res = MacSimulator(pair_topology, config=cfg).run(300, seed=2)
        # no interferer exists; only half-duplex losses are possible
        assert res.rx_collision.sum() == 0


class TestMetrics:
    def test_summarize_json_safe(self, rand_topology):
        import json

        cfg = MacConfig(traffic="poisson", load=0.08)
        res = MacSimulator(rand_topology, policy="beb", config=cfg).run(
            500, seed=3
        )
        s = summarize(rand_topology, res)
        json.dumps(s, allow_nan=False)  # strict JSON, no NaN
        assert s["conservation_ok"] is True
        assert s["delivered"] <= s["arrivals"]

    def test_delay_percentiles_monotone(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.1)
        res = MacSimulator(rand_topology, config=cfg).run(500, seed=3)
        p = res.delay_percentiles((50, 95, 99))
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert p["p50"] >= 1

    def test_spearman_positive_on_contended_instance(self, rand_topology):
        cfg = MacConfig(traffic="poisson", load=0.1)
        res = MacSimulator(rand_topology, policy="beb", config=cfg).run(
            800, seed=3
        )
        rho, pval = interference_collision_spearman(rand_topology, res)
        assert rho > 0
        assert pval < 0.05

    def test_jain_fairness_bounds(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
        assert np.isnan(jain_fairness([]))
        assert np.isnan(jain_fairness([0.0, 0.0]))

    def test_empty_run_percentiles_nan(self, pair_topology):
        res = MacSimulator(
            pair_topology, config=MacConfig(traffic="bernoulli", load=0.0)
        ).run(50, seed=0)
        p = res.delay_percentiles()
        assert all(np.isnan(v) for v in p.values())


class TestInterferenceFreeReceivers:
    """The MAC slice of the cross-layer agreement: under disk capture a
    reception can only be lost to interference at a node some *second*
    transmitter's disk covers. So no node with static ``I(v) = 0`` ever
    records an ``rx_collision``, and neither does one with ``I(v) = 1``
    (its only coverer is the neighbour addressing it)."""

    @pytest.fixture(scope="class")
    def topology(self):
        udg = unit_disk_graph(random_udg_connected(40, side=4.0, seed=1))
        nnf = build("nnf", udg)
        pos = np.vstack([nnf.positions, [[50.0, 50.0], [60.0, 50.0]]])
        return Topology(pos, nnf.edges)  # plus two isolated nodes

    @pytest.mark.parametrize("traffic", ["bernoulli", "poisson", "saturated"])
    @pytest.mark.parametrize("mode", ["aloha", "csma"])
    @pytest.mark.parametrize("policy", sorted(BACKOFF_POLICIES))
    def test_no_collision_without_a_second_coverer(
        self, topology, policy, mode, traffic
    ):
        cfg = MacConfig(
            traffic=traffic, load=0.3, mode=mode, tx_slots=2, capture="disk"
        )
        res = MacSimulator(topology, policy=policy, config=cfg).run(
            300, seed=7
        )
        interference = node_interference(topology)
        assert np.any(interference == 0) and np.any(interference == 1)
        quiet = interference <= 1
        assert not res.rx_collision[quiet].any()
        # not vacuous: the I(v) = 1 nodes were addressed, and collisions
        # happen elsewhere
        assert (res.rx_ok[quiet] + res.rx_busy[quiet]).sum() > 0
        assert res.rx_collision.sum() > 0


class TestValidation:
    def test_invalid_config_values(self):
        for bad in (
            dict(traffic="tcp"),
            dict(mode="tdma"),
            dict(capture="magic"),
            dict(load=-0.1),
            dict(queue_limit=0),
            dict(tx_slots=0),
            dict(duty_cycle=0.0),
            dict(duty_cycle=1.5),
            dict(max_retries=-1),
            dict(beta=0.0),
            dict(margin=0.5),
        ):
            with pytest.raises(ValueError):
                MacConfig(**bad)

    def test_bernoulli_load_is_a_probability(self):
        with pytest.raises(ValueError, match="load <= 1"):
            MacConfig(traffic="bernoulli", load=1.5)
        MacConfig(traffic="bernoulli", load=1.0)
        # a poisson load is a mean and may exceed one arrival per slot
        MacConfig(traffic="poisson", load=1.5)

    def test_negative_slots(self, pair_topology):
        with pytest.raises(ValueError):
            MacSimulator(pair_topology).run(-1)

    def test_config_type_checked(self, pair_topology):
        with pytest.raises(TypeError):
            MacSimulator(pair_topology, config={"load": 0.1})
