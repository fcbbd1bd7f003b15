"""Bench EXT-1: the 2-D future-work heuristics."""

import pytest

from repro.extensions import a_gen_2d, reduce_interference
from repro.geometry.generators import random_udg_connected, two_exponential_chains
from repro.interference.receiver import graph_interference
from repro.model.udg import unit_disk_graph
from repro.topologies import build


@pytest.mark.benchmark(group="ext-2d")
def test_a_gen_2d_random_300(benchmark):
    pos = random_udg_connected(300, side=7.5, seed=61)
    topo = benchmark(a_gen_2d, pos)
    assert topo.is_connected()


@pytest.mark.benchmark(group="ext-2d")
def test_local_search_random_60(benchmark):
    pos = random_udg_connected(60, side=3.5, seed=62)
    udg = unit_disk_graph(pos)
    emst_i = graph_interference(build("emst", udg))

    def run():
        return reduce_interference(udg, seed=0)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert graph_interference(out) <= emst_i


@pytest.mark.benchmark(group="ext-2d")
def test_local_search_adversarial(benchmark):
    pos, _ = two_exponential_chains(10)
    unit = float(2.0**11)
    udg = unit_disk_graph(pos, unit=unit)
    emst_i = graph_interference(build("emst", udg))

    def run():
        return reduce_interference(udg, seed=0)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    # the headline: escape the Omega(n) trap
    assert graph_interference(out) <= emst_i // 2
