"""Bench E10: the packet-level simulation substrate.

Times slotted ALOHA (the MAC engine's plain configuration), the gather
simulator and the MAC engine's CSMA mode while re-asserting the
model-validation shape (I(v) predicts collisions; low-I topologies lose
fewer packets).
"""

import numpy as np
import pytest

from repro.experiments.sim_collisions import slotted_aloha
from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.mac import MacConfig, MacSimulator
from repro.mac.metrics import collision_interference_correlation
from repro.model.udg import unit_disk_graph
from repro.sim.slotted import GatherSimulator
from repro.sim.traffic import gather_tree


@pytest.mark.benchmark(group="sim")
def test_slotted_aloha_linear_chain(benchmark):
    topo = linear_chain(exponential_chain(40))
    sim = slotted_aloha(topo, 0.15)
    res = benchmark(sim.run, 2000, seed=11)
    corr, _ = collision_interference_correlation(topo, res.collision_rate)
    assert corr > 0.85


@pytest.mark.benchmark(group="sim")
def test_slotted_aloha_aexp_beats_linear(benchmark):
    pos = exponential_chain(40)
    aexp_t = a_exp(pos)
    sim = slotted_aloha(aexp_t, 0.15)
    res = benchmark(sim.run, 2000, seed=11)
    lin_res = slotted_aloha(linear_chain(pos), 0.15).run(2000, seed=11)
    assert np.nanmean(res.collision_rate) < np.nanmean(lin_res.collision_rate)


@pytest.mark.benchmark(group="sim")
def test_gather_workload(benchmark):
    pos = random_udg_connected(40, side=3.0, seed=13)
    from repro.topologies import build

    topo = build("emst", unit_disk_graph(pos))
    parent = gather_tree(topo, sink=0)
    sim = GatherSimulator(topo, parent, p=0.2, source_period=100)
    out = benchmark(sim.run, 2000, seed=13)
    assert out["delivered"] > 0
    assert out["retransmission_overhead"] >= 1.0


@pytest.mark.benchmark(group="sim")
def test_csma_event_driven(benchmark):
    pos = random_udg_connected(30, side=3.0, seed=17)
    udg = unit_disk_graph(pos)

    sim = MacSimulator(udg, config=MacConfig(mode="csma", tx_slots=3, load=0.02))
    res = benchmark(sim.run, 3000, seed=17)
    assert res.rx_ok.sum() > 0
    assert res.deferrals.sum() > 0
