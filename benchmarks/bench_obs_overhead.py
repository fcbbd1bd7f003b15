"""P1: the observability layer must be ~free when disabled.

The acceptance bar is <5% overhead on the interference kernels of
``bench_perf_kernels.py`` with ``repro.obs`` disabled (the default).
Direct A/B wall-clock comparison of two short runs is noisy on shared
CI hosts, so the hard assertion here is an *implied-overhead* bound:

    1. count how many obs events (spans + counter bumps) one kernel
       call emits, by running it once with obs enabled;
    2. measure the per-op cost of the *disabled* primitives in a tight
       loop (this is deterministic: one attribute check and return);
    3. implied overhead = events-per-call x per-op cost / kernel time.

A direct A/B timing is also performed with a generous margin as a
backstop, using the median of repeated runs.
"""

import time

import pytest

from repro import obs
from repro.geometry.generators import random_udg_connected
from repro.interference.receiver import node_interference
from repro.model.udg import unit_disk_graph
from repro.topologies import build

OVERHEAD_BUDGET = 0.05  # the <5% acceptance bar


@pytest.fixture(scope="module")
def kernel_topology():
    # same instance as bench_perf_kernels.py::kernel_topology
    pos = random_udg_connected(400, side=8.0, seed=31)
    return build("emst", unit_disk_graph(pos))


@pytest.fixture(autouse=True)
def obs_disabled():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _per_op_seconds(fn, n=100_000):
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def _events_per_call(topology, method):
    """Spans + counter bumps one kernel call emits (measured, not guessed)."""
    with obs.capture():
        node_interference(topology, method=method)
        snap = obs.snapshot()
        # every counter bump is +1 in the instrumented kernels, so the
        # totals equal the number of obs.count() calls
        n_counts = sum(snap.counters.values())
    return snap.n_spans + n_counts


def _kernel_seconds(topology, method, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        node_interference(topology, method=method)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


@pytest.mark.parametrize("method", ["brute", "batch"])
def test_disabled_overhead_under_budget(kernel_topology, method):
    """Hard gate: implied disabled-obs overhead on the kernels is <5%."""
    span_cost = _per_op_seconds(lambda: obs.span("x", n=1).__exit__(None, None, None))
    count_cost = _per_op_seconds(lambda: obs.count("c"))
    per_op = max(span_cost, count_cost)

    events = _events_per_call(kernel_topology, method)
    assert not obs.enabled()  # capture() restored the disabled default
    kernel = _kernel_seconds(kernel_topology, method)

    implied = events * per_op / kernel
    assert implied < OVERHEAD_BUDGET, (
        f"method={method}: {events} obs events x {per_op * 1e9:.0f} ns "
        f"= {events * per_op * 1e6:.1f} us against a {kernel * 1e3:.2f} ms "
        f"kernel -> {implied:.2%} implied overhead (budget {OVERHEAD_BUDGET:.0%})"
    )


def test_disabled_primitives_are_nanoseconds_scale():
    """The disabled fast path is one attribute check — no dict writes."""
    assert _per_op_seconds(lambda: obs.count("c")) < 2e-6
    assert _per_op_seconds(lambda: obs.span("s")) < 2e-6
    # the disabled span is a shared singleton: no per-call allocation
    assert obs.span("a") is obs.span("b", attr=1)


def test_direct_ab_backstop(kernel_topology):
    """Median-of-repeats A/B: enabled-vs-disabled sanity, generous margin.

    Not the acceptance gate (wall-clock A/B flakes on loaded hosts) —
    this catches gross regressions like accidentally enabling obs by
    default or putting allocation on the disabled path.
    """
    disabled = _kernel_seconds(kernel_topology, "brute", repeats=9)
    obs.enable()
    try:
        enabled = _kernel_seconds(kernel_topology, "brute", repeats=9)
    finally:
        obs.disable()
        obs.reset()
    # enabled tracing must not blow up the kernel either
    assert enabled < disabled * 3.0, (enabled, disabled)


@pytest.mark.benchmark(group="obs-overhead")
def test_kernel_with_obs_disabled(benchmark, kernel_topology):
    vec = benchmark(node_interference, kernel_topology, method="brute")
    assert vec.shape == (400,)


@pytest.mark.benchmark(group="obs-overhead")
def test_kernel_with_obs_enabled(benchmark, kernel_topology):
    def run():
        with obs.capture():
            return node_interference(kernel_topology, method="brute")

    vec = benchmark(run)
    assert vec.shape == (400,)
