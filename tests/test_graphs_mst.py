"""Tests for Kruskal and the Euclidean MST, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.core import Graph
from repro.geometry.generators import grid_points, random_uniform_square
from repro.graphs.mst import (
    edge_order,
    edge_ranks,
    euclidean_mst_edges,
    kruskal_mst,
)
from repro.graphs.traversal import is_connected
from repro.model import unit_disk_graph
from repro.utils import check_edge_array


def _weighted_random(n, p, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.random())
                g.add_edge(i, j, w)
                nxg.add_edge(i, j, weight=w)
    return g, nxg


def _total(g: Graph) -> float:
    return sum(g.weight(u, v) for u, v in g.edges())


class TestMst:
    @pytest.mark.parametrize("seed", range(6))
    def test_kruskal_weight_matches_networkx(self, seed):
        g, nxg = _weighted_random(18, 0.3, seed)
        ours = _total(kruskal_mst(g))
        theirs = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_edges(nxg, algorithm="kruskal", data=True)
        )
        assert ours == pytest.approx(theirs)

    def test_spanning_forest_on_disconnected(self):
        g = Graph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        mst = kruskal_mst(g)
        assert mst.n_edges == 3  # spanning forest: n - #components

    def test_tree_edge_count_when_connected(self):
        g, nxg = _weighted_random(15, 0.5, 0)
        assert nx.is_connected(nxg)
        mst = kruskal_mst(g)
        assert mst.n_edges == 14
        assert is_connected(mst)

    def test_empty_graph(self):
        assert kruskal_mst(Graph(0)).n == 0


class TestEuclideanMst:
    def test_matches_networkx(self, random_positions):
        edges = euclidean_mst_edges(random_positions)
        n = len(random_positions)
        nxg = nx.Graph()
        for i in range(n):
            for j in range(i + 1, n):
                w = float(np.hypot(*(random_positions[i] - random_positions[j])))
                nxg.add_edge(i, j, weight=w)
        ref = nx.minimum_spanning_tree(nxg)
        total_ours = sum(
            float(np.hypot(*(random_positions[u] - random_positions[v])))
            for u, v in edges
        )
        total_ref = ref.size(weight="weight")
        assert total_ours == pytest.approx(total_ref)
        assert edges.shape == (n - 1, 2)

    def test_restricted_to_candidates(self, random_positions):
        cand = np.array([[0, 1], [1, 2], [2, 3]])
        edges = euclidean_mst_edges(random_positions, candidate_edges=cand)
        got = {tuple(e) for e in edges}
        assert got <= {(0, 1), (1, 2), (2, 3)}

    def test_contains_nearest_neighbor_edges(self, random_positions):
        """Every node's nearest-neighbour edge belongs to the EMST (the
        property Theorem 4.1 exploits)."""
        from repro.geometry.points import distance_matrix

        edges = {tuple(e) for e in euclidean_mst_edges(random_positions)}
        d = distance_matrix(random_positions)
        np.fill_diagonal(d, np.inf)
        for u in range(len(random_positions)):
            v = int(np.argmin(d[u]))
            assert (min(u, v), max(u, v)) in edges

    def test_ties_break_by_length_then_index(self):
        # the four sides of a unit square tie: the (length, lo, hi) order
        # keeps the same three whatever the candidates' order, orientation
        # or repetition
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        want = [[0, 1], [0, 2], [1, 3]]
        assert euclidean_mst_edges(pos).tolist() == want
        for cand in (
            [[0, 1], [0, 2], [1, 3], [2, 3]],
            [[3, 2], [3, 1], [2, 0], [1, 0], [1, 0]],
        ):
            assert euclidean_mst_edges(pos, candidate_edges=cand).tolist() == want

    def test_empty_candidates(self, random_positions):
        out = euclidean_mst_edges(random_positions, candidate_edges=np.empty((0, 2)))
        assert out.shape == (0, 2)


class TestEdgeRanks:
    """``edge_ranks`` is the inverse permutation of ``edge_order``."""

    @staticmethod
    def _lattice_edges(rows, cols):
        pos = grid_points(rows, cols)
        cand = np.stack(np.triu_indices(rows * cols, k=1), axis=1)
        d = pos[cand[:, 0]] - pos[cand[:, 1]]
        return np.hypot(d[:, 0], d[:, 1]), cand

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (4, 4), (7, 5)])
    def test_equals_argsort_of_order_on_lattice_ties(self, shape):
        # every lattice length repeats, so (lo, hi) breaks most ties
        weights, edges = self._lattice_edges(*shape)
        want = np.argsort(edge_order(weights, edges))
        got = edge_ranks(weights, edges)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_equals_argsort_of_order_on_all_equal_weights(self):
        # edge_order takes canonical edges: lexicographic rows, lo < hi
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 30, size=(200, 2))
        edges = check_edge_array(edges[edges[:, 0] != edges[:, 1]], 30)
        weights = np.ones(len(edges))
        want = np.argsort(edge_order(weights, edges))
        np.testing.assert_array_equal(edge_ranks(weights, edges), want)

    def test_empty(self):
        got = edge_ranks(np.empty(0), np.empty((0, 2), dtype=np.int64))
        assert got.shape == (0,)


def _lexsort_order(weights, edges):
    """The ``(weight, lo, hi)`` three-key order ``edge_order`` replaces."""
    return np.lexsort((edges[:, 1], edges[:, 0], weights))


class TestEdgeOrder:
    """One stable argsort of the weights equals the three-key lexsort on
    canonical (lexicographically sorted) edges, and unsorted edges raise."""

    @pytest.mark.parametrize("shape", [(1, 2), (4, 4), (7, 5), (3, 11)])
    def test_equals_lexsort_on_lattice_ties(self, shape):
        weights, edges = TestEdgeRanks._lattice_edges(*shape)
        np.testing.assert_array_equal(
            edge_order(weights, edges), _lexsort_order(weights, edges)
        )

    def test_equals_lexsort_on_all_equal_weights(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 50, size=(400, 2))
        edges = check_edge_array(edges[edges[:, 0] != edges[:, 1]], 50)
        weights = np.full(len(edges), 0.5)
        got = edge_order(weights, edges)
        np.testing.assert_array_equal(got, _lexsort_order(weights, edges))
        np.testing.assert_array_equal(got, np.arange(len(edges)))

    def test_equals_lexsort_on_a_large_udg(self):
        pos = random_uniform_square(20_000, side=np.sqrt(20_000 / 8.0), seed=5)
        udg = unit_disk_graph(pos, unit=1.0)
        assert udg.n_edges > 50_000
        # rounded lengths: many exact ties, broken by (lo, hi)
        for weights in (udg.edge_lengths, np.round(udg.edge_lengths, 2)):
            np.testing.assert_array_equal(
                edge_order(weights, udg.edges),
                _lexsort_order(weights, udg.edges),
            )

    def test_unsorted_edges_raise(self):
        edges = np.array([[0, 2], [0, 1], [1, 2]])
        with pytest.raises(ValueError, match="lexicographic"):
            edge_order(np.ones(3), edges)
        with pytest.raises(ValueError, match="lexicographic"):
            edge_ranks(np.ones(3), edges[[2, 0, 1]])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            edge_order(np.ones(2), np.array([[0, 1], [0, 2], [1, 2]]))

    def test_trivial_sizes(self):
        assert edge_order(np.empty(0), np.empty((0, 2), np.int64)).size == 0
        np.testing.assert_array_equal(
            edge_order(np.ones(1), np.array([[3, 4]])), [0]
        )
