"""Tests for the receiver-centric interference measure (Definitions 3.1/3.2)."""

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.linear import linear_chain
from repro.interference.receiver import (
    coverage_counts,
    graph_interference,
    node_interference,
    node_interference_naive,
)
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph


class TestDefinition:
    def test_two_nodes_cover_each_other(self):
        t = Topology(np.array([[0.0, 0.0], [1.0, 0.0]]), [(0, 1)])
        np.testing.assert_array_equal(node_interference(t), [1, 1])

    def test_self_interference_not_counted(self):
        t = Topology(np.array([[0.0, 0.0]]), [])
        np.testing.assert_array_equal(node_interference(t), [0])

    def test_isolated_node_covers_nobody(self):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        t = Topology(pos, [(0, 1)])
        # node 2 has radius 0: contributes nothing, receives coverage from
        # nobody (0 and 1 have radius 0.1 < 0.2 distance... node 1 is at 0.1
        # from 2) — wait: r_1 = 0.1, d(1,2) = 0.1 <= r_1, so 2 IS covered by 1.
        vec = node_interference(t)
        assert vec[2] == 1  # covered by node 1 whose disk reaches exactly
        assert vec[0] == 1 and vec[1] == 1

    def test_figure2_example(self):
        from repro.topologies.constructions import fig2_sample_topology

        t = fig2_sample_topology()
        vec = node_interference(t)
        assert vec[0] == 2  # the paper's I(u) = 2
        assert t.degrees[0] == 1  # strictly above its degree

    def test_interference_at_least_degree(self, connected_udg):
        from repro.topologies import build

        for name in ("emst", "rng", "gabriel"):
            t = build(name, connected_udg)
            vec = node_interference(t)
            assert np.all(vec >= t.degrees)

    def test_interference_at_most_udg_degree_bound(self, connected_udg):
        """Section 3: Delta of the UDG upper-bounds I of any subtopology."""
        from repro.topologies import ALGORITHMS, build

        delta = connected_udg.max_degree()
        for name in ALGORITHMS:
            assert graph_interference(build(name, connected_udg)) <= delta

    def test_empty_network(self):
        t = Topology.empty(np.zeros((0, 2)))
        assert graph_interference(t) == 0
        assert node_interference(t).shape == (0,)


class TestKernels:
    def test_brute_matches_naive(self, connected_udg):
        from repro.topologies import build

        t = build("emst", connected_udg)
        np.testing.assert_array_equal(
            node_interference(t, method="brute"), node_interference_naive(t)
        )

    def test_grid_matches_brute(self, connected_udg):
        # "batch" is the grid tier: fused queries over the GridIndex layout
        from repro.topologies import build

        for name in ("emst", "rng", "knn3"):
            t = build(name, connected_udg)
            np.testing.assert_array_equal(
                node_interference(t, method="batch"),
                node_interference(t, method="brute"),
            )

    def test_grid_matches_brute_on_chain(self):
        t = linear_chain(exponential_chain(30))
        assert graph_interference(t, method="batch") == graph_interference(
            t, method="brute"
        )

    def test_grid_spelling_is_removed(self, path_topology):
        with pytest.raises(ValueError, match="unknown method 'grid'"):
            node_interference(path_topology, method="grid")

    def test_unknown_method(self, path_topology):
        with pytest.raises(ValueError):
            node_interference(path_topology, method="quantum")
        with pytest.raises(ValueError):  # checked before the empty shortcut
            node_interference(Topology.empty(np.zeros((0, 2))), method="grid")

    def test_coverage_counts_consistent(self, connected_udg):
        from repro.topologies import build

        t = build("lmst", connected_udg)
        interferers, covered = coverage_counts(t)
        np.testing.assert_array_equal(interferers, node_interference(t))
        # total disturbances == total coverage (double counting identity)
        assert interferers.sum() == covered.sum()


class TestPaperChainFacts:
    def test_linear_exponential_chain_n_minus_2(self):
        for n in (4, 16, 64):
            t = linear_chain(exponential_chain(n))
            vec = node_interference(t)
            assert vec[0] == n - 2
            assert graph_interference(t) == n - 2

    def test_linear_chain_interference_profile(self):
        """Figure 7: node i (0-indexed) experiences n-2-i except boundary."""
        n = 10
        t = linear_chain(exponential_chain(n))
        vec = node_interference(t)
        # per the paper's Figure 7 labels: leftmost n-2, decreasing right,
        # rightmost has 1
        assert vec[-1] == 1
        assert all(vec[i] >= vec[i + 1] for i in range(1, n - 1))
