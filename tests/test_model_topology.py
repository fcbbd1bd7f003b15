"""Tests for the Topology abstraction (Section 3 model)."""

import numpy as np
import pytest

from repro.graphs import is_connected
from repro.model.topology import Topology


class TestRadii:
    def test_radius_is_farthest_neighbor(self, path_topology):
        # interior nodes reach distance-1 neighbours on both sides
        np.testing.assert_allclose(path_topology.radii, [1, 1, 1, 1, 1])

    def test_asymmetric_star(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [-3.0, 0.0]])
        t = Topology(pos, [(0, 1), (0, 2)])
        np.testing.assert_allclose(t.radii, [3.0, 1.0, 3.0])

    def test_isolated_node_zero_radius(self):
        t = Topology(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]), [(0, 1)])
        assert t.radii[2] == 0.0

    def test_empty_topology(self):
        t = Topology.empty(np.zeros((3, 2)))
        assert np.all(t.radii == 0.0)
        assert t.n_edges == 0

    def test_radii_readonly(self, path_topology):
        with pytest.raises(ValueError):
            path_topology.radii[0] = 99.0


class TestStructure:
    def test_degrees(self, path_topology):
        np.testing.assert_array_equal(path_topology.degrees, [1, 2, 2, 2, 1])

    def test_neighbors(self, path_topology):
        assert path_topology.neighbors(2) == frozenset({1, 3})

    def test_has_edge_symmetric(self, path_topology):
        assert path_topology.has_edge(0, 1) and path_topology.has_edge(1, 0)
        assert not path_topology.has_edge(0, 2)

    def test_edge_lengths(self, path_topology):
        np.testing.assert_allclose(path_topology.edge_lengths, np.ones(4))

    def test_max_degree(self, path_topology):
        assert path_topology.max_degree() == 2

    def test_dedup_and_canonical(self):
        t = Topology(np.zeros((3, 2)) + np.arange(3)[:, None], [(1, 0), (0, 1)])
        assert t.n_edges == 1
        assert t.edges.tolist() == [[0, 1]]

    def test_as_graph_weights_are_lengths(self, path_topology):
        g = path_topology.as_graph()
        assert g.weight(0, 1) == pytest.approx(1.0)

    def test_connectivity(self, path_topology):
        assert path_topology.is_connected()
        assert not path_topology.without_edges([(2, 3)]).is_connected()

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_edge_free_connectivity(self, n):
        # at most one node is connected, as for graphs.is_connected
        topo = Topology.empty(np.zeros((n, 2)))
        assert topo.is_connected() == (n <= 1)
        assert topo.is_connected() == is_connected(topo.as_graph())

    @pytest.mark.parametrize("seed", range(20))
    def test_connectivity_matches_graph_bfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        topo = Topology(
            rng.uniform(0.0, 3.0, size=(n, 2)),
            _random_rows(rng, n, int(rng.integers(0, 2 * n))),
        )
        assert topo.is_connected() == is_connected(topo.as_graph())

    def test_is_subgraph_of(self, path_topology):
        sub = path_topology.without_edges([(0, 1)])
        assert sub.is_subgraph_of(path_topology)
        assert not path_topology.is_subgraph_of(sub)

    def test_contains_edges(self, path_topology):
        assert path_topology.contains_edges([(1, 0), (3, 4)])
        assert not path_topology.contains_edges([(0, 4)])


class TestDerivedTopologies:
    def test_with_edges(self, path_topology):
        t = path_topology.with_edges([(0, 4)])
        assert t.has_edge(0, 4)
        assert t.n_edges == 5
        # original unchanged (immutability)
        assert not path_topology.has_edge(0, 4)

    def test_without_missing_edges_ignored(self, path_topology):
        t = path_topology.without_edges([(0, 4)])
        assert t.n_edges == 4

    def test_add_node(self, path_topology):
        t = path_topology.add_node((5.0, 0.0), attach_to=[4])
        assert t.n == 6
        assert t.has_edge(4, 5)
        assert t.radii[5] == pytest.approx(1.0)

    def test_add_node_no_attachments(self, path_topology):
        t = path_topology.add_node((9.0, 9.0))
        assert t.n == 6 and t.degrees[5] == 0

    def test_remove_node_renumbers(self, path_topology):
        t = path_topology.remove_node(2)
        assert t.n == 4
        # edges (0,1) and (2,3) survive under new numbering: 3->2, 4->3
        assert t.has_edge(0, 1) and t.has_edge(2, 3)
        assert t.n_edges == 2

    def test_remove_node_out_of_range(self, path_topology):
        with pytest.raises(ValueError):
            path_topology.remove_node(5)

    def test_equality(self, path_topology):
        same = Topology(path_topology.positions, path_topology.edges)
        assert path_topology == same
        assert path_topology != path_topology.without_edges([(0, 1)])

    def test_unhashable(self, path_topology):
        with pytest.raises(TypeError):
            hash(path_topology)

    def test_1d_positions_accepted(self):
        t = Topology([0.0, 1.0, 3.0], [(0, 1)])
        assert t.positions.shape == (3, 2)


def _edge_set(edges):
    return {(min(int(u), int(v)), max(int(u), int(v))) for u, v in edges}


def _random_rows(rng, n, m):
    """Up to ``m`` non-loop rows over ``0..n-1`` (duplicates and reversed
    rows likely); empty when ``n < 2``."""
    if n < 2 or m == 0:
        return np.empty((0, 2), dtype=np.int64)
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    return np.stack([u, v], axis=1)


class TestEdgeKeySetSemantics:
    """is_subgraph_of / contains_edges / without_edges == set semantics."""

    @pytest.mark.parametrize("seed", range(30))
    def test_against_python_sets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        pos = rng.uniform(0.0, 3.0, size=(n, 2))
        a_rows = _random_rows(rng, n, int(rng.integers(0, 20)))
        b_rows = _random_rows(rng, n, int(rng.integers(0, 20)))
        a = Topology(pos, a_rows)
        b = Topology(pos, np.concatenate([b_rows, a_rows[: len(a_rows) // 2]]))
        sa, sb = _edge_set(a.edges), _edge_set(b.edges)
        assert a.is_subgraph_of(b) == (sa <= sb)
        assert b.is_subgraph_of(a) == (sb <= sa)
        assert a.is_subgraph_of(a)
        # query rows: reversed copies and duplicates of b's rows
        query = np.concatenate([b_rows[:, ::-1], b_rows]).reshape(-1, 2)
        assert a.contains_edges(query) == (_edge_set(query) <= sa)
        dropped = a.without_edges(query)
        assert _edge_set(dropped.edges) == sa - _edge_set(query)
        assert np.array_equal(dropped.positions, a.positions)

    def test_empty_arrays(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        empty = Topology(pos)
        full = Topology(pos, [(0, 1), (1, 2)])
        assert empty.is_subgraph_of(full)
        assert not full.is_subgraph_of(empty)
        assert full.contains_edges([])
        assert empty.contains_edges(np.empty((0, 2), dtype=np.int64))
        assert not empty.contains_edges([(0, 1)])
        assert full.without_edges([]) == full
        assert empty.without_edges([(2, 1)]) == empty
        assert full.without_edges([(2, 1), (1, 0)]) == empty

    def test_single_node(self):
        one = Topology(np.array([[0.5, 0.5]]))
        assert one.is_subgraph_of(one)
        assert one.contains_edges([])
        assert one.without_edges([]).n_edges == 0
        assert not one.is_subgraph_of(Topology(np.zeros((2, 2))))


class TestAdjacency:
    """``neighbors`` against a set built row by row from ``edges``."""

    def test_neighbors_match_rows_on_oracle_instances(self):
        from repro.topologies import build
        from tests.test_topologies_oracle import _instances

        for label, udg in _instances():
            for topo in (udg, build("nnf", udg)):
                want = [set() for _ in range(topo.n)]
                for u, v in topo.edges:
                    want[int(u)].add(int(v))
                    want[int(v)].add(int(u))
                for u in range(topo.n):
                    got = topo.neighbors(u)
                    assert isinstance(got, frozenset), label
                    assert got == want[u], (label, u)
                    assert all(type(x) is int for x in got), label
                    assert all(topo.has_edge(u, v) for v in want[u]), label
