"""Client retry policy and server worker-death resilience."""

import asyncio
import os
import random
import signal

import pytest

from repro.serve import (
    IDEMPOTENT_TYPES,
    InterferenceServer,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    ServeRetryError,
)


def thread_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, executor="thread")
    base.update(overrides)
    return ServeConfig(**base)


def run(coro):
    return asyncio.run(coro)


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

        assert run(scenario()) == {"pong": True}

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

        exc = run(scenario())
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

        exc = run(scenario())
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

        response, after, stats = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert after["ok"] is True, f"respawned pool never served: {after}"
        assert stats["pool_respawns"] >= 1
        assert stats["internal_errors"] >= 1
