"""Tests for traffic helpers and simulation metrics."""

import math

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected
from repro.mac.metrics import collision_interference_correlation, transmit_energy
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.sim.traffic import BernoulliSource, PoissonArrivals, gather_tree


class TestSources:
    def test_bernoulli_bounds(self):
        src = BernoulliSource(0.3, seed=1)
        draws = np.array([src.draw(100).mean() for _ in range(50)])
        assert 0.2 < draws.mean() < 0.4

    def test_bernoulli_extremes(self):
        assert not BernoulliSource(0.0, seed=1).draw(10).any()
        assert BernoulliSource(1.0, seed=1).draw(10).all()

    def test_bernoulli_invalid(self):
        with pytest.raises(ValueError):
            BernoulliSource(1.5)

    def test_poisson_mean_gap(self):
        src = PoissonArrivals(2.0, seed=2)
        gaps = [src.next_gap() for _ in range(4000)]
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.1)

    def test_poisson_invalid(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestGatherTree:
    def test_parent_structure(self):
        pos = random_udg_connected(25, side=2.0, seed=3)
        udg = unit_disk_graph(pos)
        parent = gather_tree(udg, sink=0)
        assert parent[0] == -1
        assert np.all(parent[1:] >= 0)
        # following parents always reaches the sink
        for v in range(1, 25):
            hops = 0
            while v != 0:
                v = int(parent[v])
                hops += 1
                assert hops <= 25

    def test_parents_are_neighbors(self):
        pos = random_udg_connected(20, side=2.0, seed=4)
        udg = unit_disk_graph(pos)
        parent = gather_tree(udg, sink=3)
        for v in range(20):
            if parent[v] >= 0:
                assert udg.has_edge(v, int(parent[v]))

    def test_bad_sink(self, path_topology):
        with pytest.raises(ValueError):
            gather_tree(path_topology, sink=99)


class TestMetrics:
    def test_transmit_energy(self, path_topology):
        attempts = np.array([2, 0, 1, 0, 0])
        # all radii are 1, alpha=2 -> energy = total attempts
        assert transmit_energy(path_topology, attempts) == pytest.approx(3.0)

    def test_transmit_energy_validation(self, path_topology):
        with pytest.raises(ValueError):
            transmit_energy(path_topology, np.array([1, 2]))
        with pytest.raises(ValueError):
            transmit_energy(path_topology, -np.ones(5))

    def test_correlation_perfect_monotone(self, path_topology):
        from repro.interference.receiver import node_interference

        rates = node_interference(path_topology).astype(float) / 10.0
        r, p = collision_interference_correlation(path_topology, rates)
        assert r == pytest.approx(1.0)

    def test_correlation_degenerate_nan(self, path_topology):
        r, p = collision_interference_correlation(path_topology, np.zeros(5))
        assert math.isnan(r)

    def test_correlation_drops_nan_entries(self, path_topology):
        from repro.interference.receiver import node_interference

        rates = node_interference(path_topology).astype(float)
        rates[0] = np.nan
        r, _ = collision_interference_correlation(path_topology, rates)
        assert not math.isnan(r)

    def test_correlation_pearson_mode(self, path_topology):
        from repro.interference.receiver import node_interference

        rates = node_interference(path_topology).astype(float) * 2 + 1
        r, _ = collision_interference_correlation(
            path_topology, rates, method="pearson"
        )
        assert r == pytest.approx(1.0)

    def test_correlation_invalid_method(self, path_topology):
        with pytest.raises(ValueError):
            collision_interference_correlation(
                path_topology, np.zeros(5), method="kendall"
            )

    def test_correlation_shape_check(self, path_topology):
        with pytest.raises(ValueError):
            collision_interference_correlation(path_topology, np.zeros(2))
