"""Tests for saturated slotted ALOHA with binary exponential backoff.

The 1.x BEB-only simulator in ``repro.sim.backoff`` (``cw_max=256`` by
default) was removed in 2.0.0; its replacement is
``repro.mac.SaturatedAlohaSimulator(policy="beb")``. The behaviour tests
run on the replacement with the old defaults, and the differential tests
at the bottom pin it bitwise against the frozen 1.x loop kept in
``tests/test_mac_reference.py``.
"""

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.mac import SaturatedAlohaSimulator
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from tests.test_mac_reference import RefBebAloha


@pytest.fixture
def pair():
    return Topology(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])


def beb(topology, *, cw_min=2, cw_max=256):
    return SaturatedAlohaSimulator(
        topology, policy="beb", cw_min=cw_min, cw_max=cw_max
    )


class TestBeb:
    def test_deterministic(self, pair):
        a = beb(pair).run(500, seed=3)
        b = beb(pair).run(500, seed=3)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.deliveries, b.deliveries)

    def test_pair_delivers(self, pair):
        res = beb(pair).run(2000, seed=1)
        assert res.deliveries.sum() > 0
        assert res.attempts.sum() >= res.deliveries.sum()

    def test_isolated_node_inactive(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
        t = Topology(pos, [(0, 1)])
        res = beb(t).run(500, seed=2)
        assert res.attempts[2] == 0

    def test_retransmission_accounting(self, pair):
        res = beb(pair).run(2000, seed=5)
        # retransmissions only counted on delivered packets: never exceeds
        # attempts - deliveries
        assert np.all(res.retransmissions <= res.attempts - res.deliveries + 1)

    def test_backoff_reduces_under_contention(self):
        """BEB adapts: a clique's delivered throughput stays positive and
        the observed contention window grows above cw_min."""
        pos = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.3, 0.3]])
        t = Topology(pos, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        res = beb(t, cw_min=2, cw_max=64).run(4000, seed=7)
        assert res.deliveries.sum() > 0
        assert np.nanmean(res.mean_cw) > 2.0

    def test_interference_drives_retransmissions(self):
        pos = exponential_chain(30)
        lin = beb(linear_chain(pos)).run(4000, seed=9)
        aex = beb(a_exp(pos)).run(4000, seed=9)
        assert np.nanmean(lin.retransmissions_per_delivery) > np.nanmean(
            aex.retransmissions_per_delivery
        )
        assert aex.deliveries.sum() > lin.deliveries.sum()

    def test_invalid_params(self, pair):
        with pytest.raises(ValueError):
            beb(pair, cw_min=0)
        with pytest.raises(ValueError):
            beb(pair, cw_min=8, cw_max=4)
        with pytest.raises(ValueError):
            beb(pair).run(-1)


class TestMigrationShim:
    """The 1.x engine's move onto the policy registry stays bitwise."""

    @pytest.mark.parametrize(
        "cw_min,cw_max", [(2, 256), (1, 16), (4, 64), (3, 200)]
    )
    def test_differential_bitwise_vs_legacy(self, cw_min, cw_max):
        """BEB through the policy registry makes the identical RNG draws
        in the identical order as the frozen pre-migration loop."""
        pos = random_udg_connected(40, side=3.5, seed=17)
        t = unit_disk_graph(pos)
        new = beb(t, cw_min=cw_min, cw_max=cw_max).run(700, seed=23)
        old = RefBebAloha(t, cw_min=cw_min, cw_max=cw_max).run(700, seed=23)
        np.testing.assert_array_equal(new.attempts, old["attempts"])
        np.testing.assert_array_equal(new.deliveries, old["deliveries"])
        np.testing.assert_array_equal(new.retransmissions, old["retransmissions"])
        np.testing.assert_array_equal(new.mean_cw, old["mean_cw"])
