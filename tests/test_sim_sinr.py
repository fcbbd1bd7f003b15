"""Tests for slotted ALOHA under SINR reception on the MAC engine.

``capture="sinr"`` with the plain slotted-ALOHA configuration of
:func:`repro.experiments.sim_collisions.slotted_aloha` (here with
adjustable physics constants); the frozen 1.x
engine it replaces is pinned bit for bit in ``tests/test_mac_reference.py``.
A reception fails either to interference (``rx_collision``) or because
the receiver is itself transmitting (``rx_busy``).
"""

import numpy as np
import pytest

from repro.experiments.sinr_validation import loss_rate
from repro.geometry.generators import exponential_chain
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.mac import MacConfig, MacSimulator
from repro.model.topology import Topology


@pytest.fixture
def pair():
    return Topology(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])


def sinr_aloha(topology, p, **physics):
    config = MacConfig(
        traffic="bernoulli",
        load=p,
        queue_limit=1,
        ack=False,
        capture="sinr",
        **physics,
    )
    return MacSimulator(
        topology, policy="uniform", window=1, cw_min=1, config=config
    )


class TestSinr:
    def test_lone_link_closes(self, pair):
        """Power calibration: with no interferers, every intended link
        decodes at the threshold; only half-duplex losses remain."""
        res = sinr_aloha(pair, 0.5).run(1000, seed=1)
        assert res.rx_collision.sum() == 0
        assert res.rx_ok[1] > 0
        assert res.rx_ok[1] + res.rx_busy[1] == res.attempts[0]

    def test_deterministic(self, pair):
        a = sinr_aloha(pair, 0.4).run(500, seed=2)
        b = sinr_aloha(pair, 0.4).run(500, seed=2)
        np.testing.assert_array_equal(a.rx_ok, b.rx_ok)

    def test_tally_conservation(self):
        t = linear_chain(exponential_chain(20))
        res = sinr_aloha(t, 0.2).run(500, seed=3)
        received = res.rx_ok + res.rx_collision + res.rx_busy
        assert received.sum() == res.attempts.sum()
        assert res.conservation_ok

    def test_concurrent_transmitters_can_fail(self):
        """Three collinear nodes, outer two transmit to the middle: SINR at
        the middle cannot clear beta for both."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        t = Topology(pos, [(0, 1), (1, 2)])
        res = sinr_aloha(t, 0.9).run(1000, seed=4)
        assert res.rx_collision.sum() > 0

    def test_topology_ranking_preserved(self):
        """The physical model agrees with the disk model on which topology
        is better — the soundness claim of the abstraction."""
        pos = exponential_chain(30)
        lin = sinr_aloha(linear_chain(pos), 0.15).run(3000, seed=5)
        aex = sinr_aloha(a_exp(pos), 0.15).run(3000, seed=5)
        assert np.nanmean(loss_rate(aex)) < np.nanmean(loss_rate(lin))

    def test_higher_beta_more_loss(self):
        pos = exponential_chain(20)
        t = linear_chain(pos)
        lo = sinr_aloha(t, 0.2, beta=1.1).run(1500, seed=6)
        hi = sinr_aloha(t, 0.2, beta=4.0).run(1500, seed=6)
        assert np.nanmean(loss_rate(hi)) >= np.nanmean(loss_rate(lo))

    def test_isolated_node_silent(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [40.0, 0.0]])
        t = Topology(pos, [(0, 1)])
        res = sinr_aloha(t, 0.5).run(300, seed=7)
        assert res.attempts[2] == 0

    def test_invalid_params(self, pair):
        with pytest.raises(ValueError):
            sinr_aloha(pair, 0.1, alpha=0.0)
        with pytest.raises(ValueError):
            sinr_aloha(pair, 0.1, beta=-1.0)
        with pytest.raises(ValueError):
            sinr_aloha(pair, 2.0)
        with pytest.raises(ValueError):
            sinr_aloha(pair, 0.1).run(-5)
