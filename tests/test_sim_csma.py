"""Tests for carrier-sense multiple access (CSMA).

The continuous-time simulator in ``repro.sim.csma`` was removed in 3.0.0;
its replacement is ``repro.mac.MacSimulator`` with
``MacConfig(mode="csma", tx_slots=3)``: packets last three slots, so a
sender senses transmissions still in flight. The behaviour tests run on
the replacement with the old per-packet loads (``arrival_rate`` per
packet time is ``load * tx_slots``). The continuation tests of the old
``run_for`` went with it: a ``MacSimulator.run`` always starts afresh.
"""

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected
from repro.mac import MacConfig, MacSimulator
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph


@pytest.fixture
def pair_topology():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    return Topology(pos, [(0, 1)])


def csma(topology, load, **overrides):
    config = {"mode": "csma", "tx_slots": 3, "load": load, **overrides}
    return MacSimulator(topology, config=MacConfig(**config))


class TestCsma:
    def test_deterministic_with_seed(self, pair_topology):
        a = csma(pair_topology, 0.07).run(1500, seed=1)
        b = csma(pair_topology, 0.07).run(1500, seed=1)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.rx_ok, b.rx_ok)

    def test_tally_conservation(self, pair_topology):
        res = csma(pair_topology, 0.1).run(1200, seed=2)
        # every finished attempt has one outcome at its receiver; attempts
        # still on the air at the horizon are unaccounted (at most n)
        finished = res.rx_ok.sum() + res.rx_collision.sum() + res.rx_busy.sum()
        assert 0 <= res.attempts.sum() - finished <= pair_topology.n
        assert res.conservation_ok

    def test_arrival_rate_scales_attempts(self, pair_topology):
        lo = csma(pair_topology, 0.02).run(3000, seed=3)
        hi = csma(pair_topology, 0.2).run(3000, seed=3)
        assert hi.attempts.sum() > 2 * lo.attempts.sum()

    def test_carrier_sense_defers(self):
        """A dense clique at high load must record deferrals."""
        pos = random_udg_connected(12, side=0.8, seed=4)
        udg = unit_disk_graph(pos)
        res = csma(udg, 0.25).run(900, seed=5)
        assert res.deferrals.sum() > 0

    def test_exposed_pair_no_collisions(self, pair_topology):
        """Two mutually audible nodes: carrier sensing prevents overlap
        except same-slot starts, so the loss rate stays far below
        ALOHA's; a receiver that is itself sending counts as busy, not
        as a collision."""
        res = csma(pair_topology, 0.07).run(6000, seed=6)
        assert res.rx_ok.sum() > 0
        loss = res.rx_collision.sum() / max(1, res.rx_ok.sum() + res.rx_collision.sum())
        assert loss < 0.35

    def test_hidden_terminal_collisions(self):
        """Classic hidden-terminal: 0 and 2 cannot hear each other but both
        cover 1 — collisions at 1 must occur despite carrier sensing."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        t = Topology(pos, [(0, 1), (1, 2)])
        res = csma(t, 0.17).run(9000, seed=7)
        assert res.rx_collision.sum() > 0

    def test_collision_rate_shape(self, pair_topology):
        res = csma(pair_topology, 0.07).run(600, seed=8)
        assert res.collision_rate.shape == (2,)

    def test_invalid_params(self, pair_topology):
        with pytest.raises(ValueError):
            csma(pair_topology, -1.0)
        with pytest.raises(ValueError):
            csma(pair_topology, 0.1, tx_slots=0)
        with pytest.raises(ValueError):
            csma(pair_topology, 0.1).run(-1)


class TestSeededDeterminism:
    FIELDS = ("attempts", "rx_ok", "rx_collision", "deferrals")

    def test_same_seed_identical_result(self):
        t = unit_disk_graph(random_udg_connected(20, side=1.5, seed=11))
        a = csma(t, 0.1).run(1800, seed=9)
        b = csma(t, 0.1).run(1800, seed=9)
        for f in self.FIELDS:
            np.testing.assert_array_equal(
                getattr(a, f), getattr(b, f), err_msg=f
            )
        assert a.n_slots == b.n_slots
