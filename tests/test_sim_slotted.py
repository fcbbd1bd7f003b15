"""Tests for plain slotted ALOHA on the MAC engine, and for gathering.

Slotted ALOHA runs as ``MacSimulator`` under the configuration of
:func:`repro.experiments.sim_collisions.slotted_aloha` (each node sends
with probability ``p`` per slot, once, without backoff); the frozen 1.x
engine it replaces is pinned bit for bit in ``tests/test_mac_reference.py``.
"""

import numpy as np
import pytest

from repro.experiments.sim_collisions import slotted_aloha
from repro.geometry.generators import exponential_chain
from repro.highway.linear import linear_chain
from repro.mac import MacConfig
from repro.model.topology import Topology
from repro.sim.slotted import GatherSimulator


@pytest.fixture
def pair():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    return Topology(pos, [(0, 1)])


class TestSlottedAloha:
    def test_deterministic_with_seed(self, pair):
        sim = slotted_aloha(pair, 0.5)
        a = sim.run(500, seed=1)
        b = slotted_aloha(pair, 0.5).run(500, seed=1)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.rx_ok, b.rx_ok)

    def test_p_zero_nothing_happens(self, pair):
        res = slotted_aloha(pair, 0.0).run(100, seed=0)
        assert res.attempts.sum() == 0

    def test_p_one_pair_always_half_duplex(self, pair):
        """Both always transmit: every reception fails as half-duplex."""
        res = slotted_aloha(pair, 1.0).run(50, seed=0)
        assert res.rx_ok.sum() == 0
        assert res.rx_busy.sum() == 100

    def test_lone_transmitter_always_succeeds(self):
        """An isolated pair can never collide: a reception succeeds
        unless the receiver is itself transmitting."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = Topology(pos, [(0, 1)])
        res = slotted_aloha(t, 0.5).run(400, seed=2)
        assert res.rx_collision.sum() == 0
        assert res.rx_ok[1] > 0
        assert res.rx_ok[1] + res.rx_busy[1] == res.attempts[0]

    def test_tally_conservation(self):
        t = linear_chain(exponential_chain(15))
        res = slotted_aloha(t, 0.3).run(300, seed=3)
        delivered = res.rx_ok.sum() + res.rx_collision.sum() + res.rx_busy.sum()
        assert delivered == res.attempts.sum()
        assert res.delivered.sum() == res.rx_ok.sum()
        assert res.conservation_ok

    def test_isolated_node_never_transmits(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
        t = Topology(pos, [(0, 1)])
        res = slotted_aloha(t, 0.9).run(100, seed=4)
        assert res.attempts[2] == 0
        assert res.arrivals[2] == 0

    def test_high_interference_means_more_collisions(self):
        """Linear exponential chain vs A_exp on identical nodes and load."""
        from repro.highway.a_exp import a_exp

        pos = exponential_chain(30)
        r_lin = slotted_aloha(linear_chain(pos), 0.2).run(2000, seed=5)
        r_aexp = slotted_aloha(a_exp(pos), 0.2).run(2000, seed=5)
        assert np.nanmean(r_lin.collision_rate) > np.nanmean(r_aexp.collision_rate)

    def test_invalid_p(self, pair):
        with pytest.raises(ValueError):
            slotted_aloha(pair, 1.5)
        with pytest.raises(ValueError):
            slotted_aloha(pair, -0.1)
        with pytest.raises(ValueError):
            MacConfig(traffic="bernoulli", load=1.5)

    def test_invalid_slots(self, pair):
        with pytest.raises(ValueError):
            slotted_aloha(pair, 0.5).run(-1)

    def test_rate_properties(self, pair):
        res = slotted_aloha(pair, 0.4).run(300, seed=6)
        rates = res.collision_rate
        assert rates.shape == (2,)
        valid = rates[~np.isnan(rates)]
        assert np.all((valid >= 0) & (valid <= 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            dr = res.delivered / res.attempts
        valid = dr[~np.isnan(dr)]
        assert np.all((valid >= 0) & (valid <= 1))


class TestGather:
    def test_packets_flow_to_sink(self):
        pos = np.array([[float(i), 0.0] for i in range(5)])
        t = Topology(pos, [(i, i + 1) for i in range(4)])
        parent = np.array([-1, 0, 1, 2, 3])
        out = GatherSimulator(t, parent, p=0.4, source_period=50).run(4000, seed=7)
        assert out["delivered"] > 0
        assert out["delivered"] + out["backlog"].sum() == out["sourced"]

    def test_overhead_at_least_one(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = Topology(pos, [(0, 1)])
        out = GatherSimulator(t, np.array([-1, 0]), p=0.5).run(500, seed=8)
        assert out["retransmission_overhead"] >= 1.0

    def test_validation(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = Topology(pos, [(0, 1)])
        with pytest.raises(ValueError):
            GatherSimulator(t, np.array([-1]), p=0.5)
        with pytest.raises(ValueError):
            GatherSimulator(t, np.array([-1, 0]), source_period=0)
