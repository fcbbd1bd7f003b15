"""Benches EXT-3/EXT-4: SINR physical layer and mobility timeline."""

import numpy as np
import pytest

from repro.experiments.sim_collisions import slotted_aloha
from repro.experiments.sinr_validation import loss_rate
from repro.geometry.generators import exponential_chain
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.mobility import RandomWaypointModel, TopologyTimeline
from repro.mac import SaturatedAlohaSimulator
from repro.topologies import build


@pytest.mark.benchmark(group="sinr")
def test_sinr_slotted(benchmark):
    pos = exponential_chain(40)
    sim = slotted_aloha(linear_chain(pos), 0.15, capture="sinr")
    res = benchmark(sim.run, 1500, seed=3)
    assert res.rx_ok.sum() > 0


@pytest.mark.benchmark(group="sinr")
def test_sinr_ranking(benchmark):
    pos = exponential_chain(40)
    aex = a_exp(pos)
    lin = linear_chain(pos)

    def run():
        a = slotted_aloha(aex, 0.15, capture="sinr").run(1000, seed=4)
        b = slotted_aloha(lin, 0.15, capture="sinr").run(1000, seed=4)
        return float(np.nanmean(loss_rate(a))), float(np.nanmean(loss_rate(b)))

    a_loss, b_loss = benchmark(run)
    assert a_loss < b_loss


@pytest.mark.benchmark(group="beb")
def test_beb_saturation(benchmark):
    pos = exponential_chain(40)
    sim = SaturatedAlohaSimulator(a_exp(pos), policy="beb", cw_max=256)
    res = benchmark(sim.run, 2000, seed=5)
    assert res.deliveries.sum() > 0


@pytest.mark.benchmark(group="mobility")
def test_mobility_timeline_emst(benchmark):
    model = RandomWaypointModel(40, side=4.5, seed=6)
    frames = model.trajectory(15, dt=1.0)

    def run():
        return TopologyTimeline(lambda udg: build("emst", udg)).run(frames)

    result = benchmark(run)
    assert result.connected.all()
