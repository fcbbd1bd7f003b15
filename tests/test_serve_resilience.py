"""Client retry policy and server worker-death resilience."""

import asyncio
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.serve import (
    IDEMPOTENT_TYPES,
    InterferenceServer,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServeRetryError,
)
from tests.conftest import DispatchGate, run_loop


def thread_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, executor="thread")
    base.update(overrides)
    return ServeConfig(**base)


class TestRetryPolicy:
    def test_backoff_is_exponential_clamped_and_seeded(self):
        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=0.4, multiplier=2.0,
            jitter=0.5, seed=42,
        )
        a = [policy.delay_s(k, random.Random(42)) for k in (1, 2, 3, 4)]
        b = [policy.delay_s(k, random.Random(42)) for k in (1, 2, 3, 4)]
        assert a == b  # seeded => deterministic
        for k, delay in zip((1, 2, 3, 4), a):
            raw = min(0.1 * 2.0 ** (k - 1), 0.4)
            assert raw * 0.5 <= delay <= raw * 1.5
        # attempts 3 and 4 are both clamped to max_delay_s before jitter
        no_jitter = RetryPolicy(
            base_delay_s=0.1, max_delay_s=0.4, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(0)
        assert no_jitter.delay_s(3, rng) == no_jitter.delay_s(4, rng) == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_idempotent_kinds_exclude_mutations(self):
        assert "ping" in IDEMPOTENT_TYPES
        assert "stream_read" in IDEMPOTENT_TYPES
        assert "stream_apply" not in IDEMPOTENT_TYPES
        assert "stream_subscribe" not in IDEMPOTENT_TYPES


class TestRetryAcrossRestart:
    def test_idempotent_request_survives_a_server_restart(self):
        policy = RetryPolicy(
            attempts=6, base_delay_s=0.02, max_delay_s=0.1, seed=1
        )

        async def scenario():
            first = InterferenceServer(thread_config())
            await first.start()
            port = first.port
            client = await ServeClient.connect(port=port, retry=policy)
            try:
                assert (await client.ping()) == {"pong": True}
                await first.stop()
                # same port, fresh process-state: the client must notice
                # the dead connection, reconnect, and succeed
                second = InterferenceServer(thread_config(port=port))
                await second.start()
                try:
                    return await client.ping()
                finally:
                    await second.stop()
            finally:
                await client.close()

        assert run_loop(scenario()) == {"pong": True}

    def test_budget_exhaustion_is_a_terminal_retry_error(self):
        policy = RetryPolicy(
            attempts=3, base_delay_s=0.005, max_delay_s=0.01, seed=2
        )

        async def scenario():
            server = InterferenceServer(thread_config())
            await server.start()
            client = await ServeClient.connect(port=server.port, retry=policy)
            try:
                await client.ping()
                await server.stop()  # nobody comes back this time
                with pytest.raises(ServeRetryError) as info:
                    await client.ping()
                return info.value
            finally:
                await client.close()

        exc = run_loop(scenario())
        assert exc.kind == "ping"
        assert exc.attempts == 3
        assert isinstance(exc.last, (ConnectionError, OSError))

    def test_non_idempotent_kinds_do_not_retry_on_connection_loss(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.005, seed=3)

        async def scenario():
            server = InterferenceServer(thread_config())
            await server.start()
            client = await ServeClient.connect(port=server.port, retry=policy)
            try:
                await client.stream_init(capacity=16, r_max=1.0)
                await server.stop()
                # the first send may have been applied server-side, so a
                # stream_apply must surface the failure instead of
                # re-sending
                with pytest.raises(ConnectionError) as info:
                    await client.stream_apply(
                        [{"kind": "join", "node": 0, "x": 0.1, "y": 0.1,
                          "r": 0.5}]
                    )
                return info.value
            finally:
                await client.close()

        exc = run_loop(scenario())
        assert not isinstance(exc, ServeRetryError)


class TestPoolWorkerDeath:
    def test_sigkilled_worker_fails_fast_and_pool_respawns(self):
        # a real process pool with one worker: SIGKILL it mid-batch; the
        # batch must fail with `internal` (not hang), the pool must be
        # respawned, and later requests must execute on the new worker
        config = ServeConfig(
            port=0, workers=1, executor="process",
            batch_max_size=1,
        )

        async def scenario():
            async with InterferenceServer(config) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    echo = await client.experiment("diag_echo")
                    victim_pid = echo["rows"][0][0]
                    assert victim_pid != os.getpid()

                    doomed = asyncio.create_task(client.request_raw(
                        "experiment",
                        {"experiment_id": "diag_sleep",
                         "kwargs": {"seconds": 5.0}},
                    ))
                    await asyncio.sleep(0.3)  # let the batch dispatch
                    os.kill(victim_pid, signal.SIGKILL)
                    response = await asyncio.wait_for(doomed, timeout=30.0)

                    # the respawned pool serves follow-up work; allow a
                    # few raw sends in case one races the respawn itself
                    after = None
                    for _ in range(10):
                        after = await client.request_raw(
                            "experiment",
                            {"experiment_id": "diag_echo", "kwargs": {}},
                        )
                        if after.get("ok"):
                            break
                        await asyncio.sleep(0.2)
                    return response, after, server.stats()

        response, after, stats = run_loop(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert after["ok"] is True, f"respawned pool never served: {after}"
        assert stats["pool_respawns"] >= 1
        assert stats["internal_errors"] >= 1

    def test_sigkill_fails_only_the_batch_on_that_worker(self):
        # two workers, one diag_sleep batch on each: SIGKILL the first.
        # Its request alone gets `internal`; the other worker's batch
        # completes, and the dead worker is replaced.
        config = ServeConfig(
            port=0, workers=2, executor="process", batch_max_size=1,
        )

        async def scenario():
            async with InterferenceServer(config) as server:
                pids = server._executor.pids
                async with await ServeClient.connect(port=server.port) as client:
                    def sleep(seconds):
                        return asyncio.create_task(client.request_raw(
                            "experiment",
                            {"experiment_id": "diag_sleep",
                             "kwargs": {"seconds": seconds}},
                        ))

                    def inflight():
                        return server.stats()["inflight_batches"]

                    doomed = sleep(5.0)  # idle workers are taken in order
                    await DispatchGate.until(lambda: inflight() == 1)
                    survivor = sleep(1.0)
                    await DispatchGate.until(lambda: inflight() == 2)
                    await asyncio.sleep(0.1)  # both frames reach a worker
                    os.kill(pids[0], signal.SIGKILL)
                    lost, kept = await asyncio.wait_for(
                        asyncio.gather(doomed, survivor), timeout=30.0
                    )
                    return pids, lost, kept, server.stats(), server._executor.pids

        pids, lost, kept, stats, after = run_loop(scenario())
        assert lost["ok"] is False
        assert lost["error"]["code"] == "internal"
        assert "dispatch failed" in lost["error"]["message"]
        assert kept["ok"] is True, kept
        assert kept["result"]["rows"][0][1] == pids[1]
        assert stats["internal_errors"] == 1
        assert stats["pool_respawns"] == 1
        assert len(after) == 2 and pids[1] in after and pids[0] not in after


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie waiting to be reaped has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    """Running child processes of ``pid``, from ``/proc``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
class TestNoOrphanWorkers:
    """No worker process outlives a ``repro serve`` process, however it ends."""

    def _serve(self):
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        match = re.search(r"listening on [\d.]+:(\d+)", proc.stdout.readline())
        if match is None:
            proc.kill()
            proc.communicate()
            pytest.fail("no listening banner")

        async def drive(port):
            async with await ServeClient.connect(port=port) as client:
                return await client.experiment("diag_echo")

        echo = run_loop(drive(int(match.group(1))))
        workers = _children(proc.pid)
        assert len(workers) == 2
        assert echo["rows"][0][0] in workers
        return proc, workers

    @staticmethod
    def _wait_gone(pids, timeout: float = 5.0) -> list[int]:
        end = time.monotonic() + timeout
        while any(_alive(p) for p in pids) and time.monotonic() < end:
            time.sleep(0.05)
        return [p for p in pids if _alive(p)]

    def test_sigkilled_server_takes_its_workers_down(self):
        proc, workers = self._serve()
        proc.kill()
        proc.communicate(timeout=30)
        assert self._wait_gone(workers) == []

    def test_sigint_drain_leaves_no_child(self):
        proc, workers = self._serve()
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "stopped after 1 request(s)" in out
        assert self._wait_gone(workers) == []
