"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import gc
import threading

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected, random_uniform_square
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_positions():
    """Seven hand-placed 2-D points with distinct pairwise distances."""
    return np.array(
        [
            [0.0, 0.0],
            [0.8, 0.1],
            [1.5, 0.6],
            [0.3, 1.1],
            [2.2, 0.2],
            [1.1, 1.7],
            [2.6, 1.3],
        ]
    )


@pytest.fixture
def small_udg(small_positions):
    return unit_disk_graph(small_positions, unit=1.0)


@pytest.fixture
def connected_udg():
    """A 40-node connected random UDG (deterministic)."""
    pos = random_udg_connected(40, side=3.0, seed=99)
    return unit_disk_graph(pos, unit=1.0)


@pytest.fixture
def path_topology():
    """Five nodes on a line, consecutive edges."""
    pos = np.array([[float(i), 0.0] for i in range(5)])
    return Topology(pos, [(i, i + 1) for i in range(4)])


@pytest.fixture
def random_positions():
    return random_uniform_square(30, side=2.5, seed=7)


def run_loop(coro):
    """Run ``coro`` on a fresh event loop, like ``asyncio.run``, and fail
    the test on anything the loop reports to its exception handler: a
    pending task destroyed mid-flight, a future exception never retrieved,
    an exception raised by a task cancelled at shutdown. A collection
    after the loop closes flushes reports from objects that die with it.
    """
    reports: list[dict] = []
    loop = asyncio.new_event_loop()
    loop.set_exception_handler(lambda _loop, context: reports.append(context))
    asyncio.set_event_loop(loop)
    try:
        result = loop.run_until_complete(coro)
    finally:
        try:
            _cancel_remaining_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
    gc.collect()
    if reports:
        pytest.fail(
            "event loop reported: "
            + "; ".join(repr(r.get("message")) for r in reports)
        )
    return result


def _cancel_remaining_tasks(loop) -> None:
    """Cancel the tasks ``coro`` left behind, as ``asyncio.run`` does, and
    report any that raised something other than the cancellation."""
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler({
                "message": "unhandled exception during run_loop() shutdown",
                "exception": task.exception(),
                "task": task,
            })


class DispatchGate:
    """Holds every serve executor dispatch until :meth:`release`.

    Wraps ``repro.serve.server.run_batch`` so a thread-executor server's
    batches block in their worker thread. While the gate is shut every
    executor slot stays busy and new requests queue: that backlog is what
    work-conserving dispatch coalesces, so batching tests build it
    explicitly instead of leaning on a timer.
    """

    def __init__(self, monkeypatch):
        import repro.serve.server as server_mod

        self._open = threading.Event()
        self.held = threading.Event()
        run_batch = server_mod.run_batch

        def gated(kind, params_list):
            self.held.set()
            self._open.wait(timeout=30.0)
            return run_batch(kind, params_list)

        monkeypatch.setattr(server_mod, "run_batch", gated)

    def release(self) -> None:
        self._open.set()

    def shut(self) -> None:
        """Close the gate again and forget earlier holds."""
        self._open.clear()
        self.held.clear()

    @staticmethod
    async def until(predicate, timeout: float = 10.0) -> None:
        """Poll ``predicate`` on the running loop until it holds."""
        loop = asyncio.get_running_loop()
        end = loop.time() + timeout
        while not predicate():
            assert loop.time() < end, "condition not reached in time"
            await asyncio.sleep(0.001)


@pytest.fixture
def dispatch_gate(monkeypatch):
    gate = DispatchGate(monkeypatch)
    yield gate
    gate.release()
