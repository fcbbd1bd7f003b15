"""P1: performance benchmarks of the computational kernels.

Compares the vectorized interference kernel against the batch tier and
the pure-Python reference, and the two UDG construction kernels — the
profile-then-vectorize workflow of the HPC guides, kept honest over time.
"""

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected, random_uniform_square
from repro.geometry.points import distance_matrix
from repro.interference.receiver import node_interference, node_interference_naive
from repro.model.udg import unit_disk_graph
from repro.topologies import build


@pytest.fixture(scope="module")
def kernel_topology():
    pos = random_udg_connected(400, side=8.0, seed=31)
    return build("emst", unit_disk_graph(pos))


@pytest.mark.benchmark(group="kernel-interference")
def test_interference_brute(benchmark, kernel_topology):
    vec = benchmark(node_interference, kernel_topology, method="brute")
    assert vec.shape == (400,)


@pytest.mark.benchmark(group="kernel-interference")
def test_interference_batch(benchmark, kernel_topology):
    vec = benchmark(node_interference, kernel_topology, method="batch")
    np.testing.assert_array_equal(
        vec, node_interference(kernel_topology, method="brute")
    )


@pytest.mark.benchmark(group="kernel-interference")
def test_interference_naive_reference(benchmark):
    """The pure-Python baseline, at reduced n (it is ~100x slower)."""
    pos = random_udg_connected(120, side=4.5, seed=32)
    topo = build("emst", unit_disk_graph(pos))
    vec = benchmark(node_interference_naive, topo)
    np.testing.assert_array_equal(vec, node_interference(topo, method="brute"))


@pytest.mark.benchmark(group="kernel-udg")
@pytest.mark.parametrize("method", ["brute", "grid"])
def test_udg_construction(benchmark, method):
    pos = random_uniform_square(2000, side=20.0, seed=33)
    udg = benchmark(unit_disk_graph, pos, unit=1.0, method=method)
    assert udg.n == 2000


@pytest.mark.benchmark(group="kernel-geometry")
def test_distance_matrix_2000(benchmark):
    pos = random_uniform_square(2000, side=10.0, seed=34)
    d = benchmark(distance_matrix, pos)
    assert d.shape == (2000, 2000)
