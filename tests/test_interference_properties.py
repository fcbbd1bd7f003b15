"""Randomized property tests: all interference kernels agree everywhere.

Compares ``node_interference(method="brute")``, ``method="grid"`` and the
pure-Python ``node_interference_naive`` oracle across random uniform,
clustered and adversarial (exponential chain, two-chain Omega(n))
instances, under both the default and a loose tolerance setting — the
regression net for the grid kernel's cell-size clamp and brute fallback.
"""

import numpy as np
import pytest

from repro.geometry.generators import (
    cluster_with_remote,
    exponential_chain,
    random_cluster,
    random_udg_connected,
    two_exponential_chains,
)
from repro.highway.linear import linear_chain
from repro.geometry.spatial import GridIndex
from repro.interference.batch import (
    _covered_rows,
    _layout_part,
    node_interference_many,
)
from repro.interference.receiver import (
    ATOL,
    AUTO_GRID_MIN_N,
    RTOL,
    _grid_cell_size,
    node_interference,
    node_interference_naive,
)
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build

#: The two tolerance settings of the kernels' contract: exact-geometry
#: defaults, and a loose setting that flips boundary classifications.
TOLERANCES = [
    {},
    {"rtol": 1e-6, "atol": 1e-9},
]


def _assert_kernels_agree(topology, tol):
    brute = node_interference(topology, method="brute", **tol)
    grid = node_interference(topology, method="grid", **tol)
    batch = node_interference(topology, method="batch", **tol)
    naive = node_interference_naive(topology, **tol)
    np.testing.assert_array_equal(grid, brute)
    np.testing.assert_array_equal(batch, brute)
    np.testing.assert_array_equal(brute, naive)


@pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "loose"])
class TestKernelsAgree:
    def test_random_uniform(self, tol):
        for seed in range(5):
            pos = random_udg_connected(60 + 20 * seed, side=4.0, seed=seed)
            udg = unit_disk_graph(pos)
            for name in ("emst", "rng", "knn3"):
                _assert_kernels_agree(build(name, udg), tol)

    def test_random_clustered(self, tol):
        rng = np.random.default_rng(1234)
        for trial in range(5):
            # several tight clusters plus a remote straggler: radii span
            # orders of magnitude, the regime where the grid heuristics act
            blobs = [
                random_cluster(
                    20,
                    center=tuple(rng.uniform(0.0, 3.0, size=2)),
                    radius=0.05,
                    seed=rng,
                )
                for _ in range(3)
            ]
            pos = np.concatenate(blobs + [[[5.0, 5.0]]], axis=0)
            udg = unit_disk_graph(pos, unit=8.0)
            _assert_kernels_agree(build("emst", udg), tol)

    def test_cluster_with_remote(self, tol):
        for seed in (0, 1):
            pos = cluster_with_remote(80, seed=seed)
            udg = unit_disk_graph(pos)
            _assert_kernels_agree(build("emst", udg), tol)

    def test_adversarial_exponential_chain(self, tol):
        """Regression for the grid cell-size degeneracy: radii spanning
        hundreds of orders of magnitude used to make the median-radius
        cell astronomically finer than the span (n=1024 reaches float64
        denormals, where squared-distance tests underflow)."""
        for n in (8, 64, 200, 1024):
            topology = linear_chain(exponential_chain(n))
            brute = node_interference(topology, method="brute", **tol)
            grid = node_interference(topology, method="grid", **tol)
            np.testing.assert_array_equal(grid, brute)
            if n <= 200:  # keep the O(n^2) Python oracle affordable
                np.testing.assert_array_equal(
                    brute, node_interference_naive(topology, **tol)
                )

    @pytest.mark.parametrize(
        "n, normalize", [(300, False), (1024, True)], ids=["raw300", "norm1024"]
    )
    def test_exponential_chain_16n_cell_row(self, tol, n, normalize):
        """The area clamp lays a 1-D chain out as ONE grid row of ~16n
        cells. The batch kernel (the numba backend where installed), the
        fused many kernel and the row-span loop nest run as plain Python
        must walk it by row spans and still equal brute."""
        topology = linear_chain(exponential_chain(n, normalize=normalize))
        rtol = tol.get("rtol", RTOL)
        r_eff = topology.radii * (1.0 + rtol) + tol.get("atol", ATOL)
        cell = _grid_cell_size(topology.positions, topology.radii, r_eff, n)
        index = GridIndex(topology.positions, cell_size=cell)
        assert index._top[1] == 0 and index._ncols > 8 * n
        brute = node_interference(topology, method="brute", **tol)
        np.testing.assert_array_equal(
            node_interference(topology, method="batch", **tol), brute
        )
        np.testing.assert_array_equal(
            node_interference_many([topology], **tol)[0], brute
        )
        rows = _covered_rows(*_layout_part(index, r_eff), index._cell_ids)
        np.testing.assert_array_equal(rows[np.argsort(index._order)], brute)

    def test_adversarial_two_chains(self, tol):
        for m in (4, 8, 16):
            pos, _ = two_exponential_chains(m)
            udg = unit_disk_graph(pos, unit=float(2.0 ** (m + 1)))
            for name in ("nnf", "emst"):
                _assert_kernels_agree(build(name, udg), tol)

    def test_degenerate_instances(self, tol):
        # all points coincident (zero span) and edge-free topologies must
        # not trip the grid's clamp arithmetic
        coincident = Topology(np.zeros((5, 2)), [(0, 1), (2, 3)])
        _assert_kernels_agree(coincident, tol)
        edge_free = Topology.empty(np.random.default_rng(0).uniform(size=(12, 2)))
        _assert_kernels_agree(edge_free, tol)

    def test_coincident_zero_radius_nodes(self, tol):
        """Regression: the grid kernel used to skip zero-radius
        transmitters, but a zero-radius disk still covers nodes at
        distance exactly zero — brute/naive count them, grid must too."""
        # three coincident isolated nodes (radius 0) plus a connected far
        # pair, so the instance has positive radii and a real span (the
        # grid path stays active rather than falling back to brute)
        pos = np.array(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.1]]
        )
        topology = Topology(pos, [(3, 4)])
        assert topology.radii[0] == 0.0
        _assert_kernels_agree(topology, tol)
        vec = node_interference(topology, method="grid", **tol)
        # each coincident zero-radius node is covered by the other two
        np.testing.assert_array_equal(vec, [2, 2, 2, 1, 1])

    def test_coincident_cluster_among_spread_nodes(self, tol):
        rng = np.random.default_rng(42)
        spread = rng.uniform(0.0, 4.0, size=(30, 2))
        stack = np.repeat(rng.uniform(1.0, 3.0, size=(1, 2)), 4, axis=0)
        pos = np.concatenate([spread, stack], axis=0)
        udg = unit_disk_graph(pos, unit=1.5)
        _assert_kernels_agree(build("emst", udg), tol)


class TestAutoCrossover:
    def test_auto_constant_exists_and_is_sane(self):
        assert isinstance(AUTO_GRID_MIN_N, int)
        assert 100 <= AUTO_GRID_MIN_N <= 10_000

    def test_auto_matches_explicit_methods(self):
        pos = random_udg_connected(50, side=3.0, seed=9)
        topology = build("emst", unit_disk_graph(pos))
        np.testing.assert_array_equal(
            node_interference(topology, method="auto"),
            node_interference(topology, method="brute"),
        )
