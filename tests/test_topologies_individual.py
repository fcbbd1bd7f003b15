"""Structural properties specific to each topology-control algorithm."""

import math

import numpy as np
import pytest

from repro.geometry.points import distance_matrix
from repro.geometry.generators import random_udg_connected
from repro.model.udg import unit_disk_graph
from repro.topologies import build
from repro.topologies.knn import knn_topology


@pytest.fixture(scope="module")
def udg():
    pos = random_udg_connected(60, side=4.0, seed=5)
    return unit_disk_graph(pos, unit=1.0)


class TestNNF:
    def test_every_node_keeps_nearest_neighbor(self, udg):
        nnf = build("nnf", udg)
        d = distance_matrix(udg.positions)
        np.fill_diagonal(d, np.inf)
        for u in range(udg.n):
            nn = int(np.argmin(d[u]))
            assert nnf.has_edge(u, nn)

    def test_is_forest(self, udg):
        nnf = build("nnf", udg)
        from repro.graphs.traversal import connected_components

        comps = connected_components(nnf.as_graph(weighted=False))
        # forest: edges = n - #components
        assert nnf.n_edges == udg.n - len(comps)


class TestEmst:
    def test_tree_edge_count(self, udg):
        emst = build("emst", udg)
        assert emst.n_edges == udg.n - 1

    def test_contains_nnf(self, udg):
        emst = build("emst", udg)
        nnf = build("nnf", udg)
        assert nnf.is_subgraph_of(emst)

    def test_minimal_total_length(self, udg):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import minimum_spanning_tree

        emst = build("emst", udg)
        graph = coo_matrix(
            (udg.edge_lengths, (udg.edges[:, 0], udg.edges[:, 1])), shape=(udg.n, udg.n)
        )
        ref = minimum_spanning_tree(graph.tocsr()).sum()
        assert emst.edge_lengths.sum() == pytest.approx(ref)


class TestPlanarFamilies:
    def test_hierarchy_emst_rng_gabriel_delaunay(self, udg):
        """EMST <= RNG <= Gabriel <= Delaunay (restricted to the UDG)."""
        emst = build("emst", udg)
        rng_t = build("rng", udg)
        gg = build("gabriel", udg)
        assert emst.is_subgraph_of(rng_t)
        assert rng_t.is_subgraph_of(gg)

    def test_gabriel_witness_definition(self, udg):
        gg = build("gabriel", udg)
        pos = udg.positions
        d = distance_matrix(pos)
        kept = {tuple(e) for e in gg.edges}
        for u, v in udg.edges:
            mid = (pos[u] + pos[v]) / 2
            r2 = float(np.sum((pos[u] - pos[v]) ** 2)) / 4
            d2 = np.sum((pos - mid) ** 2, axis=1)
            d2[[u, v]] = np.inf
            empty = not np.any(d2 <= r2)
            assert ((int(u), int(v)) in kept) == empty

    def test_rng_lune_definition(self, udg):
        rng_t = build("rng", udg)
        pos = udg.positions
        d = distance_matrix(pos)
        kept = {tuple(e) for e in rng_t.edges}
        for u, v in udg.edges:
            duv = d[u, v]
            blocked = np.any(
                (d[u] < duv - 1e-12) & (d[v] < duv - 1e-12)
            )
            assert ((int(u), int(v)) in kept) == (not blocked)

    def test_xtc_subgraph_of_rng(self, udg):
        """In the geometric setting XTC output is contained in the RNG."""
        xtc_t = build("xtc", udg)
        rng_t = build("rng", udg)
        assert xtc_t.is_subgraph_of(rng_t)


class TestYao:
    def test_degenerate_k1(self, udg):
        from repro.topologies.yao import yao_graph

        y1 = yao_graph(udg, k=1)
        # k=1: single cone == nearest neighbour overall
        nnf = build("nnf", udg)
        assert np.array_equal(y1.edges, nnf.edges)

    def test_more_cones_more_edges(self, udg):
        from repro.topologies.yao import yao_graph

        y4 = yao_graph(udg, k=4)
        y8 = yao_graph(udg, k=8)
        assert y8.n_edges >= y4.n_edges

    def test_invalid_k(self, udg):
        from repro.topologies.yao import yao_graph

        with pytest.raises(ValueError):
            yao_graph(udg, k=0)


class TestLmst:
    def test_bounded_degree(self, udg):
        """LMST's classic guarantee: max degree <= 6."""
        assert build("lmst", udg).max_degree() <= 6

    def test_contains_nnf(self, udg):
        nnf = build("nnf", udg)
        lmst_t = build("lmst", udg)
        assert nnf.is_subgraph_of(lmst_t)


class TestCbtc:
    def test_alpha_two_pi_keeps_only_nearest(self, udg):
        """alpha = 2*pi: one neighbour in any direction suffices."""
        from repro.topologies.cbtc import cbtc

        t = cbtc(udg, alpha=2.0 * math.pi)
        nnf = build("nnf", udg)
        assert np.array_equal(t.edges, nnf.edges)

    def test_smaller_alpha_more_edges(self, udg):
        from repro.topologies.cbtc import cbtc

        wide = cbtc(udg, alpha=2.0 * math.pi / 3.0)
        narrow = cbtc(udg, alpha=math.pi / 3.0)
        assert narrow.n_edges >= wide.n_edges

    def test_invalid_alpha(self, udg):
        from repro.topologies.cbtc import cbtc

        with pytest.raises(ValueError):
            cbtc(udg, alpha=0.0)


class TestKnn:
    def test_k1_is_nnf(self, udg):
        assert np.array_equal(knn_topology(udg, k=1).edges, build("nnf", udg).edges)

    def test_monotone_in_k(self, udg):
        assert knn_topology(udg, k=2).is_subgraph_of(knn_topology(udg, k=4))

    def test_invalid_k(self, udg):
        with pytest.raises(ValueError):
            knn_topology(udg, k=0)


class TestLifeLise:
    def test_life_is_spanning_tree(self, udg):
        life = build("life", udg)
        assert life.n_edges == udg.n - 1
        assert life.is_connected()

    def test_life_coverage_optimal_vs_spanning_trees(self, udg):
        """LIFE's max edge coverage is minimal: Kruskal over coverage order
        is exactly the bottleneck spanning tree of the coverage weights."""
        from repro.interference.sender import edge_coverage, sender_interference

        life_cov = sender_interference(build("life", udg))
        for other in ("emst", "rng", "lmst"):
            assert life_cov <= sender_interference(build(other, udg)) + 1e-9

    def test_lise_is_t_spanner(self, udg):
        from repro.graphs.spanner import graph_stretch
        from repro.topologies.life import lise

        t = 2.0
        sp = lise(udg, t=t)
        stretch = graph_stretch(sp.as_graph(), udg.as_graph(), udg.positions)
        assert stretch <= t + 1e-9

    def test_lise_invalid_t(self, udg):
        from repro.topologies.life import lise

        with pytest.raises(ValueError):
            lise(udg, t=0.5)

    def test_lise_contains_life_connectivity(self, udg):
        from repro.topologies.life import lise

        assert lise(udg, t=2.0).is_connected()


class TestSpannerLimits:
    """``t = inf`` keeps exactly the spanning forest; ``t = nan`` is rejected."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_infinite_t_greedy_is_emst(self, seed):
        from repro.topologies.greedy_spanner import greedy_spanner

        udg = unit_disk_graph(random_udg_connected(30, side=2.5, seed=seed))
        assert np.unique(udg.edge_lengths).size == udg.n_edges  # tie-free
        sp = greedy_spanner(udg, t=math.inf)
        assert sp.n_edges == udg.n - 1
        assert np.array_equal(sp.edges, build("emst", udg).edges)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_infinite_t_lise_is_life(self, seed):
        from repro.topologies.life import lise

        udg = unit_disk_graph(random_udg_connected(30, side=2.5, seed=seed))
        assert np.unique(udg.edge_lengths).size == udg.n_edges  # tie-free
        assert np.array_equal(lise(udg, t=math.inf).edges, build("life", udg).edges)

    def test_infinite_t_on_disconnected_udg_is_forest(self):
        from repro.topologies.greedy_spanner import greedy_spanner

        pos = random_udg_connected(12, side=1.5, seed=4)
        udg = unit_disk_graph(np.concatenate([pos, pos + 10.0]))
        assert greedy_spanner(udg, t=math.inf).n_edges == udg.n - 2

    def test_nan_t_rejected(self, udg):
        from repro.topologies.greedy_spanner import greedy_spanner
        from repro.topologies.life import lise

        with pytest.raises(ValueError):
            greedy_spanner(udg, t=math.nan)
        with pytest.raises(ValueError):
            lise(udg, t=math.nan)


class TestDelaunay:
    def test_collinear_fallback(self):
        pos = np.array([[float(i), 0.0] for i in range(6)])
        udg = unit_disk_graph(pos, unit=1.0)
        t = build("delaunay", udg)
        assert t.n_edges == 5
        assert t.is_connected()

    def test_contains_gabriel(self, udg):
        """Gabriel graph is a subgraph of the Delaunay triangulation."""
        gg = build("gabriel", udg)
        dt = build("delaunay", udg)
        assert gg.is_subgraph_of(dt)
