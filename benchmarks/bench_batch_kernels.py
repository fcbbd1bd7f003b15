"""P7: the fused batch interference tier — speedup gate and memory gates.

Three hard gates ride with the throughput numbers:

1. **Speedup**: the batch tier must be >= 10x faster than the scalar
   grid kernel at ``n >= 1e4``, with the attribution read from obs spans
   (``interference.node`` with ``method`` attrs), not hand-placed
   timers — the measurement and the production telemetry are the same
   code path.
2. **Peak allocation**: the 2-D tiled brute/coverage kernels must never
   materialize an ``(chunk, n, 2)`` temporary again. At ``n = 4096``
   the old 3-D broadcast peaked around 400 MB; the tiled kernels stay
   under ~48 MB (a few ``(1024, n)`` float64 tiles).
3. **Fused peak**: ``node_interference_many`` must stay chunked on
   ``BATCH_PAIR_CHUNK`` candidate pairs. Over ten n = 4096 UDGs it peaks
   at ~13 MB; materialising every candidate pair of the batch at once,
   as it used to, peaked at ~177 MB.

Run via ``python -m pytest benchmarks/bench_batch_kernels.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.geometry.generators import random_udg_connected, random_uniform_square
from repro.interference.batch import node_interference_many
from repro.interference.receiver import (
    coverage_counts,
    node_interference,
)
from repro.model.udg import unit_disk_graph
from repro.topologies import build

#: Speedup the batch tier must hold over the scalar grid kernel at
#: ``SPEEDUP_N`` (ISSUE acceptance: >= 10x at n >= 1e4; measured 17-18x).
SPEEDUP_FLOOR = 10.0
SPEEDUP_N = 10_000
SPEEDUP_ROUNDS = 3

#: Peak-allocation ceiling for the tiled O(n^2) kernels at n = 4096.
#: A resurrected (chunk, n, 2) float64 temporary alone would be ~400 MB.
PEAK_ALLOC_N = 4096
PEAK_ALLOC_CEILING_MB = 48.0

#: Peak-allocation ceiling for ``node_interference_many`` over
#: ``MANY_PEAK_INSTANCES`` UDGs of ``MANY_PEAK_N`` nodes (~580k covered
#: pairs, ~2.4M candidate pairs): the instances' CSR layout plus one
#: chunk. Measured ~13 MB chunked against ~177 MB unchunked (tracemalloc,
#: numpy 2.4).
MANY_PEAK_N = 4096
MANY_PEAK_INSTANCES = 10
MANY_PEAK_CEILING_MB = 32.0


def _instance(n, seed=0):
    side = 4.0 * float(np.sqrt(n / 150.0))
    pos = random_udg_connected(n, side=side, seed=seed)
    return build("emst", unit_disk_graph(pos))


def _span_seconds(trace, method):
    """Total wall time of ``interference.node`` spans for one kernel."""
    total = 0.0
    hits = 0
    for span, _ in trace.snapshot().iter_spans():
        if span.name == "interference.node" and span.attrs.get("method") == method:
            total += span.duration_s
            hits += 1
    assert hits > 0, f"no interference.node span for method={method!r}"
    return total


@pytest.fixture(scope="module")
def speedup_topology():
    return _instance(SPEEDUP_N, seed=41)


def test_batch_speedup_gate(speedup_topology):
    """Batch tier >= 10x over scalar grid at n = 1e4, span-attributed."""
    # warm both kernels (first-touch allocations, index build)
    node_interference(speedup_topology, method="grid")
    node_interference(speedup_topology, method="batch")

    best = 0.0
    for _ in range(SPEEDUP_ROUNDS):
        with obs.capture() as trace:
            want = node_interference(speedup_topology, method="grid")
            got = node_interference(speedup_topology, method="batch")
        np.testing.assert_array_equal(got, want)
        grid_s = _span_seconds(trace, "grid")
        batch_s = _span_seconds(trace, "batch")
        best = max(best, grid_s / batch_s)
    assert best >= SPEEDUP_FLOOR, (
        f"batch tier only {best:.1f}x over grid at n={SPEEDUP_N} "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


@pytest.mark.benchmark(group="kernel-batch")
def test_batch_kernel_throughput(benchmark, speedup_topology):
    vec = benchmark(node_interference, speedup_topology, method="batch")
    assert vec.shape == (SPEEDUP_N,)


@pytest.mark.benchmark(group="kernel-batch")
def test_many_instance_fusion(benchmark):
    topos = [_instance(512, seed=s) for s in range(8)]
    results = benchmark(node_interference_many, topos)
    for topo, vec in zip(topos, results):
        np.testing.assert_array_equal(
            vec, node_interference(topo, method="brute")
        )


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(
            lambda t: node_interference(t, method="brute"), id="brute"
        ),
        pytest.param(lambda t: coverage_counts(t), id="coverage_counts"),
    ],
)
def test_peak_allocation_gate(kernel):
    """The tiled kernels must stay far below the old 3-D-temporary peak."""
    topo = _instance(PEAK_ALLOC_N, seed=43)
    kernel(topo)  # warm: exclude first-touch imports/caches from the peak

    tracemalloc.start()
    try:
        kernel(topo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mb = peak / 1e6
    assert peak_mb < PEAK_ALLOC_CEILING_MB, (
        f"kernel peaked at {peak_mb:.1f} MB for n={PEAK_ALLOC_N} "
        f"(ceiling {PEAK_ALLOC_CEILING_MB} MB — did a (chunk, n, 2) "
        f"temporary come back?)"
    )


def test_many_peak_allocation_gate():
    """The fused multi-instance kernel must stay chunked."""
    side = 4.0 * float(np.sqrt(MANY_PEAK_N / 150.0))
    topos = [
        unit_disk_graph(random_uniform_square(MANY_PEAK_N, side=side, seed=s))
        for s in range(MANY_PEAK_INSTANCES)
    ]
    node_interference_many(topos)  # warm: first-touch imports and caches

    tracemalloc.start()
    try:
        node_interference_many(topos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mb = peak / 1e6
    assert peak_mb < MANY_PEAK_CEILING_MB, (
        f"node_interference_many peaked at {peak_mb:.1f} MB over "
        f"{MANY_PEAK_INSTANCES} x n={MANY_PEAK_N} (ceiling "
        f"{MANY_PEAK_CEILING_MB} MB — is the fused pass unchunked again?)"
    )
