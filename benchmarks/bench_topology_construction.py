"""Sort-once topology construction at n = 2x10^4: parity and speed gates.

Runs on the ``kernel_scale`` uniform and blob families (n = 2x10^4, 3
nodes per unit area, seed 0). Two kinds of gate:

1. **Parity**: every builder that reads the neighbour table (kNN, XTC,
   CBTC, LMST, Yao), NNF and EMST gives exactly the edges of the frozen
   sorts in ``tests/test_topologies_sort_reference.py``.
2. **Speed**: same-process ratios over those frozen copies, best of
   :data:`ROUNDS` alternating calls, each on a fresh ``Topology`` (so the
   edge lengths and cached ranks are part of every timed call). NNF must
   be >= 3x faster, ``NeighborTable`` >= 2x. On a 2-vCPU Xeon NNF runs
   at 6-8x and the table at about 3x.

Run via ``python -m pytest benchmarks/bench_topology_construction.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.geometry.generators import random_blobs, random_uniform_square
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build
from repro.topologies.nnf import nearest_neighbor_edges
from repro.topologies.ranking import NeighborTable
from tests.test_topologies_sort_reference import (
    FROZEN_BUILDERS,
    FrozenNeighborTable,
    frozen_build,
    frozen_nnf_edges,
)

#: the ``kernel_scale`` families: n, density (nodes per unit area), seed
N = 20_000
DENSITY = 3.0
SEED = 0
ROUNDS = 5
NNF_FLOOR = 3.0
TABLE_FLOOR = 2.0


def _family(name: str) -> Topology:
    side = math.sqrt(N / DENSITY)
    if name == "uniform":
        pos = random_uniform_square(N, side=side, seed=SEED)
    else:
        pos = random_blobs(N, side=side, blobs=100, spread=3.0, seed=SEED + 1)
    return unit_disk_graph(pos)


@pytest.fixture(scope="module", params=["uniform", "blobs"])
def udg(request):
    return _family(request.param)


@pytest.mark.parametrize("name", FROZEN_BUILDERS)
def test_parity_at_scale(udg, name):
    assert np.array_equal(build(name, udg).edges, frozen_build(name, udg)), name


def _best_ratio(udg, frozen, ours) -> tuple[float, float, float]:
    """``(frozen_s, ours_s, ratio)``: best of :data:`ROUNDS` alternating
    calls, each on a fresh copy of ``udg`` built outside the timer."""
    best = {frozen: math.inf, ours: math.inf}
    for _ in range(ROUNDS):
        for fn in (frozen, ours):
            fresh = Topology(udg.positions, udg.edges)
            started = time.perf_counter()
            fn(fresh)
            best[fn] = min(best[fn], time.perf_counter() - started)
    return best[frozen], best[ours], best[frozen] / best[ours]


@pytest.mark.parametrize(
    "label, frozen, ours, floor",
    [
        pytest.param(
            "nnf", frozen_nnf_edges, nearest_neighbor_edges, NNF_FLOOR, id="nnf"
        ),
        pytest.param(
            "NeighborTable",
            FrozenNeighborTable,
            NeighborTable,
            TABLE_FLOOR,
            id="table",
        ),
    ],
)
def test_speedup_gate(benchmark, udg, label, frozen, ours, floor):
    frozen_s, ours_s, ratio = benchmark.pedantic(
        _best_ratio, args=(udg, frozen, ours), rounds=1, iterations=1
    )
    benchmark.extra_info["frozen_ms"] = round(frozen_s * 1e3, 2)
    benchmark.extra_info["ms"] = round(ours_s * 1e3, 2)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    assert ratio >= floor, (
        f"{label} only {ratio:.2f}x over the frozen sorts at n={N} "
        f"({ours_s * 1e3:.1f} ms vs {frozen_s * 1e3:.1f} ms; floor {floor}x)"
    )
