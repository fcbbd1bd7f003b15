"""End-to-end tests for the asyncio interference server + client.

pytest-asyncio is not a dependency; every test drives its own event loop
via ``run_loop``, which also fails on anything the loop reports. Most
servers use the thread executor: the admission/batching/deadline logic
under test is executor-agnostic. ``TestProcessWorkers`` and
``TestBatchTaskLifetime`` cover the forked worker pool.
"""

import asyncio
import gc
import json
import pickle

import numpy as np
import pytest

from repro import obs
from repro.geometry.generators import exponential_chain
from repro.interference.receiver import graph_interference
from repro.model.udg import unit_disk_graph
from repro.serve import (
    InterferenceServer,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.serve.handlers import handle_interference, run_batch
from repro.serve.workers import WorkerPool
from tests.conftest import run_loop


def thread_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, executor="thread")
    base.update(overrides)
    return ServeConfig(**base)


class TestRequestTypes:
    def test_ping_and_interference_match_direct_computation(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    assert (await client.ping()) == {"pong": True}
                    return await client.interference(
                        generator="exponential_chain", args={"n": 8}
                    )

        result = run_loop(scenario())
        topo = unit_disk_graph(exponential_chain(8), unit=1.0)
        assert result["value"] == int(graph_interference(topo))
        assert result["n"] == 8
        assert result["measure"] == "graph"

    def test_inline_positions_and_measures(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    node = await client.interference(
                        positions=[0.0, 1.0, 3.0, 7.0], measure="node"
                    )
                    avg = await client.interference(
                        positions=[0.0, 1.0, 3.0, 7.0], measure="average",
                        unit=4.0,
                    )
                    return node, avg

        node, avg = run_loop(scenario())
        assert isinstance(node["value"], list) and len(node["value"]) == 4
        assert isinstance(avg["value"], float)

    def test_build_topology_applies_registry_algorithm(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    udg = await client.build_topology(
                        generator="exponential_chain", args={"n": 6}
                    )
                    emst = await client.build_topology(
                        generator="exponential_chain", args={"n": 6},
                        algorithm="emst",
                    )
                    return udg, emst

        udg, emst = run_loop(scenario())
        assert udg["algorithm"] is None and emst["algorithm"] == "emst"
        assert emst["n_edges"] == 5  # spanning tree on 6 nodes
        assert emst["n_edges"] <= udg["n_edges"]
        assert len(udg["edges"]) == udg["n_edges"]

    def test_opt_exact_small_instance(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    return await client.opt(
                        generator="exponential_chain", args={"n": 8}
                    )

        result = run_loop(scenario())
        assert result["exact"] is True
        assert result["value"] == result["lower_bound"] == 4
        assert result["certificate"]["digest"]

    def test_opt_past_deadline_returns_certified_bracket(self):
        # The headline deadline contract: an `opt` request whose deadline
        # cannot be met is *not* an error — the remaining deadline becomes
        # the solver's time budget and the response carries the certified
        # [lb, ub] bracket it reached.
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    return await client.opt(
                        generator="exponential_chain", args={"n": 16},
                        node_budget=10_000_000, deadline_ms=30.0,
                    )

        result = run_loop(scenario())
        assert result["lower_bound"] <= result["value"]
        assert result["status"] in ("optimal", "budget")

    def test_experiment_runs_registered_id(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    return await client.experiment("diag_echo", payload=41)

        result = run_loop(scenario())
        assert result["data"]["payload"] == 41


class TestBatching:
    """Coalescing comes from a backlog queued behind a busy executor slot.

    ``dispatch_gate`` holds the one slot (``workers=1``) with a first
    request, so the requests sent after it queue deterministically; the
    gate then opens and the backlog dispatches.
    """

    def test_concurrent_small_requests_coalesce(self, dispatch_gate):
        config = thread_config(workers=1, batch_max_size=64)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    def send():
                        return asyncio.ensure_future(client.interference(
                            generator="exponential_chain", args={"n": 8}
                        ))

                    holder = send()
                    await dispatch_gate.until(dispatch_gate.held.is_set)
                    queued = [send() for _ in range(39)]
                    await dispatch_gate.until(
                        lambda: server.stats()["queue_depth"] == 39
                    )
                    dispatch_gate.release()
                    results = await asyncio.gather(holder, *queued)
                    return results, server.stats()

        results, stats = run_loop(scenario())
        assert len({r["value"] for r in results}) == 1  # identical instances
        assert stats["accepted"] == 40
        assert stats["batched_requests"] == 40
        assert stats["max_batch_size"] > 1
        assert stats["batches"] < 40  # coalescing actually happened
        # the whole backlog left in one dispatch behind the holder's
        assert stats["batches"] == 2
        assert stats["max_batch_size"] == 39

    def test_batch_max_size_one_disables_coalescing(self):
        config = thread_config(batch_max_size=1)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await asyncio.gather(*(
                        client.interference(
                            generator="exponential_chain", args={"n": 6}
                        )
                        for _ in range(5)
                    ))
                    return server.stats()

        stats = run_loop(scenario())
        assert stats["batches"] == 5
        assert stats["max_batch_size"] == 1

    def test_incompatible_lanes_never_share_a_batch(self, dispatch_gate):
        config = thread_config(workers=1, batch_max_size=16)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    def send(measure):
                        return asyncio.ensure_future(client.interference(
                            generator="exponential_chain", args={"n": 8},
                            measure=measure,
                        ))

                    holder = send("node")
                    await dispatch_gate.until(dispatch_gate.held.is_set)
                    queued = [
                        send("graph" if i % 2 else "average")
                        for i in range(8)
                    ]
                    await dispatch_gate.until(
                        lambda: server.stats()["queue_depth"] == 8
                    )
                    dispatch_gate.release()
                    results = await asyncio.gather(holder, *queued)
                    return results[1:], server.stats()

        results, stats = run_loop(scenario())
        assert stats["batches"] >= 2  # at least one dispatch per lane
        graphs = [r for r in results if r["measure"] == "graph"]
        averages = [r for r in results if r["measure"] == "average"]
        assert len(graphs) == len(averages) == 4
        # holder, then exactly one dispatch per queued lane
        assert stats["batches"] == 3
        assert stats["max_batch_size"] == 4

    def test_lone_request_dispatches_without_a_timer(self):
        """An idle server runs a lone request at once: with the event
        loop's clock frozen no timer can ever fire, so the request can
        only complete if dispatch never waits on one."""
        import threading

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    loop = asyncio.get_running_loop()
                    frozen = loop.time()
                    loop.time = lambda: frozen
                    try:
                        request = asyncio.ensure_future(client.interference(
                            generator="exponential_chain", args={"n": 8}
                        ))
                        # a thread-side wait bounds the test in real time
                        stop = threading.Event()
                        watchdog = loop.run_in_executor(None, stop.wait, 10.0)
                        done, _ = await asyncio.wait(
                            {request, watchdog},
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                    finally:
                        stop.set()
                        del loop.time
                    assert request in done, "lone request waited on a timer"
                    return request.result(), server.stats()

        result, stats = run_loop(scenario())
        topo = unit_disk_graph(exponential_chain(8), unit=1.0)
        assert result["value"] == int(graph_interference(topo))
        assert stats["batches"] == 1

    def test_linger_option_is_removed(self):
        with pytest.raises(TypeError, match="batch_linger_ms"):
            ServeConfig(batch_linger_ms=1)

    def test_cluster_linger_option_is_removed(self):
        from repro.serve.shard import ClusterConfig

        with pytest.raises(TypeError, match="batch_linger_ms"):
            ClusterConfig(batch_linger_ms=1)

    def test_linger_ms_flag_is_removed(self, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as exc:  # a usage error, before serving
            _build_parser().parse_args(["serve", "--linger-ms", "5"])
        assert exc.value.code == 2
        assert "--linger-ms" in capsys.readouterr().err


class TestErrors:
    def test_caller_errors_map_to_bad_request(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    with pytest.raises(ServeError) as info:
                        await client.interference(generator="not_a_generator")
                    return info.value

        error = run_loop(scenario())
        assert error.code == "bad_request"
        assert "unknown generator" in error.message

    def test_grid_method_is_bad_request(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    with pytest.raises(ServeError) as info:
                        await client.interference(
                            generator="exponential_chain", args={"n": 8},
                            method="grid",
                        )
                    return info.value

        error = run_loop(scenario())
        assert error.code == "bad_request"
        assert "auto, brute or batch" in error.message

    def test_malformed_json_line_gets_bad_request_envelope(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                reader, writer = await asyncio.open_connection(
                    port=server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        response = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert response["id"] is None

    def test_overlong_frame_is_rejected_not_fatal(self):
        config = thread_config(max_line_bytes=4096)

        async def scenario():
            async with InterferenceServer(config) as server:
                reader, writer = await asyncio.open_connection(
                    port=server.port, limit=1 << 20
                )
                writer.write(b'{"pad": "' + b"x" * 8192 + b'"}\n')
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        response = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "frame too long" in response["error"]["message"]

    def test_unknown_request_type_rejected(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    response = await client.request_raw("experiment", {
                        "experiment_id": "no_such_experiment", "kwargs": {},
                    })
                    return response

        response = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestAdmissionControl:
    def test_burst_past_queue_limit_sheds_explicitly(self):
        config = thread_config(
            workers=1, queue_limit=2, batch_max_size=1
        )

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    responses = await asyncio.gather(*(
                        client.request_raw(
                            "experiment",
                            {"experiment_id": "diag_sleep",
                             "kwargs": {"seconds": 0.05}},
                        )
                        for _ in range(12)
                    ))
                    return responses, server.stats()

        responses, stats = run_loop(scenario())
        ok = [r for r in responses if r.get("ok")]
        shed = [
            r for r in responses
            if not r.get("ok") and r["error"]["code"] == "overloaded"
        ]
        assert ok, "some requests must be served"
        assert shed, "burst past the queue limit must be shed explicitly"
        assert len(ok) + len(shed) == 12
        assert stats["rejected_overloaded"] == len(shed)

    def test_stats_shape(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.ping()
                    await client.interference(
                        generator="exponential_chain", args={"n": 6}
                    )
                return server.stats()

        stats = run_loop(scenario())
        assert stats["pings"] == 1
        assert stats["accepted"] == stats["completed"] == 1
        assert stats["queue_depth"] == 0
        assert stats["inflight_batches"] == 0


class TestDeadlines:
    def test_completed_after_deadline_is_an_error(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    response = await client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_sleep",
                         "kwargs": {"seconds": 0.08}},
                        deadline_ms=15.0,
                    )
                    fast = await client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_echo", "kwargs": {}},
                        deadline_ms=5000.0,
                    )
                    return response, fast, server.stats()

        response, fast, stats = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline_exceeded"
        assert fast["ok"] is True
        assert stats["deadline_exceeded"] == 1

    def test_expired_in_queue_is_cancelled_without_executing(self):
        config = thread_config(workers=1, batch_max_size=1)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    blocker = asyncio.create_task(client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_sleep",
                         "kwargs": {"seconds": 0.15}},
                    ))
                    await asyncio.sleep(0.03)  # ensure the blocker dispatched
                    doomed = await client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_echo", "kwargs": {}},
                        deadline_ms=20.0,
                    )
                    await blocker
                    return doomed

        doomed = run_loop(scenario())
        assert doomed["ok"] is False
        assert doomed["error"]["code"] == "deadline_exceeded"

    def test_default_deadline_applies_when_request_has_none(self):
        config = thread_config(default_deadline_ms=15.0)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    return await client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_sleep",
                         "kwargs": {"seconds": 0.08}},
                    )

        response = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline_exceeded"


class TestLifecycle:
    def test_graceful_drain_finishes_accepted_work(self):
        async def scenario():
            server = InterferenceServer(thread_config())
            await server.start()
            client = await ServeClient.connect(port=server.port)
            inflight = [
                asyncio.create_task(client.request_raw(
                    "experiment",
                    {"experiment_id": "diag_sleep",
                     "kwargs": {"seconds": 0.03}},
                ))
                for _ in range(4)
            ]
            await asyncio.sleep(0.01)
            await server.stop()  # graceful: drains the accepted requests
            responses = await asyncio.gather(*inflight)
            await client.close()
            return responses, server.stats()

        responses, stats = run_loop(scenario())
        assert all(r["ok"] for r in responses)
        assert stats["completed"] == 4
        assert stats["queue_depth"] == 0

    def test_stop_is_idempotent_and_rejects_new_connections(self):
        async def scenario():
            server = InterferenceServer(thread_config())
            await server.start()
            port = server.port
            await server.stop()
            await server.stop()  # idempotent
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.wait_for(
                    asyncio.open_connection(port=port), timeout=1.0
                )

        run_loop(scenario())

    def test_obs_counters_and_spans_recorded(self):
        from repro import obs

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.interference(
                        generator="exponential_chain", args={"n": 6}
                    )

        with obs.capture():
            run_loop(scenario())
            snap = obs.snapshot()
        assert snap.counters["serve.accepted"] == 1
        assert snap.counters["serve.completed"] == 1
        assert snap.counters["serve.batches"] == 1
        names = [s.name for s in snap.spans]
        assert "serve.request" in names and "serve.batch" in names


def process_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=1, executor="process")
    base.update(overrides)
    return ServeConfig(**base)


class TestBatchTaskLifetime:
    """A batch in flight is referenced by the server, not only by the
    loop's weak task set: a collection mid-batch must not drop it."""

    def test_gc_mid_batch_thread_path(self, dispatch_gate):
        async def scenario():
            async with InterferenceServer(thread_config(workers=1)) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    reply = asyncio.ensure_future(client.interference(
                        generator="exponential_chain", args={"n": 8}
                    ))
                    await dispatch_gate.until(dispatch_gate.held.is_set)
                    gc.collect()
                    dispatch_gate.release()
                    return await asyncio.wait_for(reply, timeout=10.0)

        topo = unit_disk_graph(exponential_chain(8), unit=1.0)
        assert run_loop(scenario())["value"] == int(graph_interference(topo))

    def test_gc_mid_batch_process_path(self):
        async def scenario():
            async with InterferenceServer(process_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    reply = asyncio.ensure_future(client.experiment(
                        "diag_sleep", seconds=0.3
                    ))
                    await asyncio.sleep(0.1)
                    assert server.stats()["inflight_batches"] == 1
                    for _ in range(3):
                        gc.collect()
                        await asyncio.sleep(0.02)
                    return await asyncio.wait_for(reply, timeout=10.0)

        assert run_loop(scenario())["rows"][0][0] == 0.3

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_batch_past_the_drain_window_is_answered(self, executor, dispatch_gate):
        # stop() cancels what is still running after the drain window and
        # awaits it: the request is answered `shutting_down`. The gate
        # holds the thread worker; a process worker sleeps.
        config = ServeConfig(
            port=0, workers=1, executor=executor, drain_timeout_s=0.1,
        )
        seconds = 5.0 if executor == "process" else 0.0

        async def scenario():
            server = InterferenceServer(config)
            await server.start()
            async with await ServeClient.connect(port=server.port) as client:
                reply = asyncio.ensure_future(client.request_raw(
                    "experiment",
                    {"experiment_id": "diag_sleep",
                     "kwargs": {"seconds": seconds}},
                ))
                await dispatch_gate.until(
                    lambda: server.stats()["inflight_batches"] == 1
                )
                await server.stop()
                response = await asyncio.wait_for(reply, timeout=10.0)
            return response, server.stats()

        response, stats = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting_down"
        assert stats["inflight_batches"] == 0


def _positions(seed: int, n: int, side: float) -> list:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2)).tolist()


class TestProcessWorkers:
    """The socketpair worker pool returns what ``run_batch`` returns."""

    @staticmethod
    def _through_pool(kind, payloads):
        async def scenario():
            pool = WorkerPool(1)
            await pool.start()
            try:
                return await pool.run(kind, payloads)
            finally:
                pool.close()

        return run_loop(scenario())

    def test_frames_over_one_mib_round_trip(self):
        # three n = 2e4 instances make a request frame over 1 MiB (each
        # over the per-request node cap, so each is an error item); the
        # n = 4096 one computes, and the echo makes a reply over 1 MiB
        payloads = [
            {"positions": _positions(seed, 20_000, 100.0), "measure": "node"}
            for seed in range(3)
        ]
        payloads.append(
            {"positions": _positions(3, 4096, 60.0), "measure": "node"}
        )
        frame = pickle.dumps(("interference", payloads), pickle.HIGHEST_PROTOCOL)
        assert len(frame) > 2**20
        items, handler_s = self._through_pool("interference", payloads)
        assert items == run_batch("interference", payloads)
        assert handler_s > 0
        assert [item["ok"] for item in items] == [False] * 3 + [True]

        echo = [{"experiment_id": "diag_echo",
                 "kwargs": {"payload": _positions(4, 60_000, 1.0)}}]
        items, _ = self._through_pool("experiment", echo)
        assert len(pickle.dumps(items, pickle.HIGHEST_PROTOCOL)) > 2**20
        assert items[0]["result"]["rows"][0][1] == echo[0]["kwargs"]["payload"]

    def test_fused_interference_batch_equals_scalar(self):
        payloads = [
            {"positions": _positions(seed, 40, 3.0), "algorithm": "emst",
             "measure": measure}
            for seed, measure in enumerate(["node", "graph", "average"] * 2)
        ]
        items, _ = self._through_pool("interference", payloads)
        assert [item["result"] for item in items] == [
            handle_interference(p) for p in payloads
        ]

    def test_request_span_splits_into_queue_worker_ipc(self):
        async def scenario():
            async with InterferenceServer(process_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.interference(
                        generator="exponential_chain", args={"n": 12}
                    )

        with obs.capture():
            run_loop(scenario())
            spans = {s.name: s.duration_s for s in obs.snapshot().spans}
        parts = (
            spans["serve.queue_wait"] + spans["serve.worker"]
            + spans["serve.ipc"]
        )
        assert spans["serve.worker"] > 0
        assert abs(parts - spans["serve.request"]) < 1e-3

    def test_more_inflight_batches_than_workers_wait_for_one(self):
        config = process_config(max_inflight_batches=3, batch_max_size=1)

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    return await asyncio.gather(*(
                        client.experiment("diag_sleep", seconds=0.05)
                        for _ in range(4)
                    ))

        results = run_loop(scenario())
        assert len({r["rows"][0][1] for r in results}) == 1
