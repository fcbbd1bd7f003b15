"""Tests for unit disk graph construction."""

import math

import numpy as np
import pytest

from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_blobs,
    random_highway,
    random_uniform_square,
)
from repro.geometry.points import distance_matrix
from repro.geometry.spatial import AUTO_BATCH_MIN_N, GridIndex
from repro.model.udg import udg_max_degree, unit_disk_graph


class TestUnitDiskGraph:
    def test_edge_iff_within_unit(self, random_positions):
        udg = unit_disk_graph(random_positions, unit=1.0)
        d = distance_matrix(random_positions)
        n = len(random_positions)
        expected = {
            (i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] <= 1.0
        }
        assert {tuple(e) for e in udg.edges} == expected

    def test_brute_and_grid_agree(self, random_positions):
        a = unit_disk_graph(random_positions, method="brute")
        b = unit_disk_graph(random_positions, method="grid")
        assert np.array_equal(a.edges, b.edges)

    def test_unit_parameter(self, random_positions):
        small = unit_disk_graph(random_positions, unit=0.5)
        large = unit_disk_graph(random_positions, unit=2.0)
        assert small.n_edges < large.n_edges
        assert small.is_subgraph_of(large)

    def test_boundary_distance_included(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert unit_disk_graph(pos, unit=1.0).n_edges == 1

    def test_invalid_unit(self, random_positions):
        with pytest.raises(ValueError):
            unit_disk_graph(random_positions, unit=0.0)

    def test_invalid_method(self, random_positions):
        with pytest.raises(ValueError, match="method"):
            unit_disk_graph(random_positions, method="magic")

    def test_max_degree(self, random_positions):
        udg = unit_disk_graph(random_positions)
        assert udg_max_degree(random_positions) == udg.max_degree()

    def test_normalized_exponential_chain_is_complete(self):
        """The paper's assumption: the whole chain fits in one unit range."""
        from repro.geometry.generators import exponential_chain

        n = 12
        udg = unit_disk_graph(exponential_chain(n))
        assert udg.n_edges == n * (n - 1) // 2
        assert udg.max_degree() == n - 1


#: hypot(dx, dy) == 1.0 exactly, but dx*dx + dy*dy == 1.0000000000000002:
#: a squared-distance predicate drops the edge, hypot keeps it
BOUNDARY_PAIR = np.array(
    [
        [19.85587333228916, 11.19031602760207],
        [19.724403131551284, 10.198995904575233],
    ]
)

METHODS = ("brute", "grid", "auto")


def _udg_family(family, n):
    if family == "uniform":
        return random_uniform_square(n, side=math.sqrt(n / 3.0), seed=n)
    if family == "blobs":
        side = math.sqrt(n / 3.0)
        return random_blobs(n, side=side, blobs=8, spread=0.6, seed=n)
    if family == "highway":
        return random_highway(n, max_gap=0.3, seed=n)
    assert family == "grid_points"
    # spacing == unit: every lattice neighbour sits at distance exactly 1
    cols = math.ceil(math.sqrt(n))
    return grid_points(cols, cols, spacing=1.0)[:n]


def _assert_methods_agree(pos):
    edges = [unit_disk_graph(pos, method=m).edges for m in METHODS]
    for other in edges[1:]:
        assert np.array_equal(edges[0], other)
    return edges[0]


class TestOneEdgePredicate:
    def test_boundary_pair_is_an_edge_in_every_method(self):
        d = BOUNDARY_PAIR[1] - BOUNDARY_PAIR[0]
        assert np.hypot(d[0], d[1]) == 1.0
        assert d[0] ** 2 + d[1] ** 2 > 1.0
        for method in METHODS:
            udg = unit_disk_graph(BOUNDARY_PAIR, method=method)
            assert udg.edges.tolist() == [[0, 1]], method

    def test_boundary_pair_edge_does_not_depend_on_n(self):
        # pad the pair with far-away nodes so auto crosses to the grid
        xs = np.arange(AUTO_BATCH_MIN_N, dtype=np.float64) * 3.0 + 100.0
        pad = np.column_stack([xs, np.zeros_like(xs)])
        for pos in (BOUNDARY_PAIR, np.concatenate([BOUNDARY_PAIR, pad])):
            assert unit_disk_graph(pos).has_edge(0, 1), len(pos)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unnormalized_chain_grid_has_no_cell_overflow(self):
        # a 2^299 extent at unit-sized cells overflows int64 cell ids; the
        # UDG grid path must clamp its cell size instead
        pos = exponential_chain(300, normalize=False)
        brute = unit_disk_graph(pos, method="brute")
        for method in ("grid", "auto"):
            udg = unit_disk_graph(pos, method=method)
            assert np.array_equal(udg.edges, brute.edges)


class TestUdgDifferential:
    """brute == grid == auto, on both sides of the auto crossover."""

    @pytest.mark.parametrize(
        "n",
        [AUTO_BATCH_MIN_N - 1, AUTO_BATCH_MIN_N, AUTO_BATCH_MIN_N + 1, 1200, 3001],
    )
    @pytest.mark.parametrize(
        "family", ["uniform", "blobs", "highway", "grid_points"]
    )
    def test_methods_agree(self, family, n):
        edges = _assert_methods_agree(_udg_family(family, n))
        assert edges.shape[0] > 0

    def test_grid_points_keep_exact_unit_pairs(self):
        edges = _assert_methods_agree(grid_points(20, 20, spacing=1.0))
        # 2 * 20 * 19 lattice neighbours at distance exactly 1, no diagonals
        assert edges.shape[0] == 2 * 20 * 19

    def test_normalized_exponential_chain_denormal_gaps(self):
        pos = exponential_chain(1024)
        gaps = np.diff(pos[:, 0])
        assert gaps[gaps > 0].min() < np.finfo(np.float64).tiny  # denormal
        edges = _assert_methods_agree(pos)
        assert edges.shape[0] == 1024 * 1023 // 2

    def test_auto_crossover(self, monkeypatch):
        calls = []
        real = GridIndex.pairs_within

        def spy(self, radius):
            calls.append(len(self))
            return real(self, radius)

        monkeypatch.setattr(GridIndex, "pairs_within", spy)
        for n in (AUTO_BATCH_MIN_N, AUTO_BATCH_MIN_N + 1):
            unit_disk_graph(_udg_family("uniform", n))
        assert calls == [AUTO_BATCH_MIN_N + 1]
