"""Tests for BFS traversal and connectivity, cross-checked against networkx
(graph traversals) and scipy.sparse.csgraph (the array connectivity check)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.core import Graph
from repro.graphs.traversal import (
    bfs_order,
    connected_components,
    edges_connected,
    is_connected,
)


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
                nxg.add_edge(i, j)
    return g, nxg


class TestBfs:
    def test_order_starts_at_source(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_order(g, 2) == [2, 1, 3, 0]

    def test_unreachable_excluded(self):
        g = Graph(4, [(0, 1)])
        assert set(bfs_order(g, 0)) == {0, 1}

    def test_bad_source(self):
        with pytest.raises(ValueError):
            bfs_order(Graph(2), 5)


class TestComponents:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        g, nxg = _random_graph(25, 0.07, seed)
        ours = {frozenset(c) for c in connected_components(g)}
        theirs = {frozenset(c) for c in nx.connected_components(nxg)}
        assert ours == theirs

    def test_isolated_nodes_are_components(self):
        g = Graph(3, [(0, 1)])
        comps = connected_components(g)
        assert comps == [[0, 1], [2]]


class TestIsConnected:
    def test_trivial_graphs(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        g, nxg = _random_graph(20, 0.12, seed)
        assert is_connected(g) == nx.is_connected(nxg)

    def test_path(self):
        g = Graph(10, [(i, i + 1) for i in range(9)])
        assert is_connected(g)
        g.remove_edge(4, 5)
        assert not is_connected(g)


def _scipy_connected(n, pairs):
    """Oracle: one component by scipy.sparse.csgraph (n = 0 has zero
    components there, and counts as connected here)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as cc

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    return cc(graph, directed=False)[0] <= 1


class TestEdgesConnected:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_on_random_pairs(self, seed):
        # m from 0 to ~2n: isolated nodes, m < n - 1, duplicates,
        # self-loops and either orientation all occur
        rng = np.random.default_rng(seed)
        for _ in range(150):
            n = int(rng.integers(1, 61))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
            assert edges_connected(n, pairs) == _scipy_connected(n, pairs)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_on_sparse_random_graphs(self, seed):
        # near the connectivity threshold, where both answers occur
        rng = np.random.default_rng(100 + seed)
        answers = set()
        for _ in range(40):
            n = int(rng.integers(2, 200))
            m = int(rng.integers(n - 1, 2 * n))
            pairs = rng.integers(0, n, size=(m, 2))
            want = _scipy_connected(n, pairs)
            answers.add(want)
            assert edges_connected(n, pairs) == want
        assert answers == {True, False}

    @pytest.mark.parametrize("n", [2, 3, 17, 500])
    def test_chains_in_reverse_order(self, n):
        # the first round hooks every node onto its neighbour; pointer
        # jumping must then collapse the whole chain onto node 0
        chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        for pairs in (chain[::-1], chain[::-1, ::-1], chain[:, ::-1]):
            assert edges_connected(n, pairs)
            assert _scipy_connected(n, pairs)
            cut = np.delete(pairs, len(pairs) // 2, axis=0)
            assert not edges_connected(n, cut)
            assert not _scipy_connected(n, cut)

    def test_isolated_node(self):
        pairs = [(0, 1), (1, 2), (2, 0), (0, 2)]  # m >= n - 1, node 3 alone
        assert not edges_connected(4, pairs)
        assert edges_connected(3, pairs)

    def test_trivial_sizes(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert edges_connected(0, empty) and _scipy_connected(0, empty)
        assert edges_connected(1, empty) and edges_connected(1, [(0, 0)])
        assert not edges_connected(2, empty)
        assert edges_connected(2, [(1, 0)])

    def test_matches_bfs_on_graph(self):
        for seed in range(5):
            g, _ = _random_graph(30, 0.06, seed)
            assert edges_connected(g.n, g.edge_array()) == is_connected(g)
