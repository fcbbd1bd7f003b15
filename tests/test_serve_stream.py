"""The serve ``stream`` lane: init, apply acks, bounded-staleness reads,
per-region delta pushes, and durable restart recovery."""

import asyncio
import json

import pytest

from repro.serve import (
    InterferenceServer,
    ServeClient,
    ServeConfig,
    ServeError,
)
from repro.stream import StreamEngine, StreamConfig, random_stream_events
from tests.conftest import run_loop


def thread_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, executor="thread")
    base.update(overrides)
    return ServeConfig(**base)


def events_for(n, *, seed=0, capacity=64, family="uniform"):
    return random_stream_events(
        n, capacity=capacity, side=5.0, r_max=1.0, seed=seed, family=family
    )


class TestLifecycle:
    def test_init_apply_read_roundtrip(self):
        events = events_for(80)

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    init = await client.stream_init(capacity=64, r_max=1.0)
                    assert init == {
                        "seq": 0, "n_active": 0, "durable": False,
                        "recovery": None,
                    }
                    ack = await client.stream_apply(events, ack="applied")
                    assert ack["applied_seq"] == 80 and ack["rejected"] == 0
                    summary = await client.stream_read(max_lag=0)
                    node = await client.stream_read(
                        node=summary_node(events), max_lag=0
                    )
                    return summary, node

        summary, node = run_loop(scenario())
        reference = StreamEngine(
            StreamConfig(capacity=64, r_max=1.0, snapshot_every=0)
        )
        reference.apply_batch(events_for(80))
        assert summary["seq"] == 80
        assert summary["n_active"] == reference.n_active
        assert summary["max_interference"] == reference.max_interference()
        assert node["value"] == reference.interference_of(node["node"])

    def test_requests_before_init_are_bad_requests(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    with pytest.raises(ServeError) as info:
                        await client.stream_read()
                    return info.value.code

        assert run_loop(scenario()) == "bad_request"

    def test_double_init_needs_reset(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    with pytest.raises(ServeError):
                        await client.stream_init(capacity=32, r_max=1.0)
                    fresh = await client.stream_init(
                        capacity=32, r_max=1.0, reset=True
                    )
                    return fresh["seq"]

        assert run_loop(scenario()) == 0

    def test_apply_validation(self):
        async def scenario():
            async with InterferenceServer(
                thread_config(stream_max_apply=10)
            ) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    codes = []
                    for events, ack in [
                        ([], "accepted"),                      # empty
                        (events_for(11, capacity=32), "accepted"),  # > cap
                        (events_for(2, capacity=32), "whenever"),   # bad ack
                        (events_for(2, capacity=32), "durable"),    # not durable
                    ]:
                        try:
                            await client.stream_apply(events, ack=ack)
                            codes.append("ok")
                        except ServeError as exc:
                            codes.append(exc.code)
                    return codes

        assert run_loop(scenario()) == ["bad_request"] * 4

    def test_rejected_events_are_counted_not_fatal(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    bad = {"kind": "leave", "node": 7}  # leave of inactive
                    good = {"kind": "join", "node": 1, "x": 0.5, "y": 0.5,
                            "r": 0.5}
                    ack = await client.stream_apply([bad, good], ack="applied")
                    read = await client.stream_read(node=1, max_lag=0)
                    return ack, read, server.stats()

        ack, read, stats = run_loop(scenario())
        assert ack["rejected"] == 1
        assert read["value"] == 0
        assert stats["stream_rejected_events"] == 1
        assert stats["stream_applied"] == 1


class TestBoundedStaleness:
    def test_max_lag_zero_is_read_your_writes(self):
        events = events_for(500, capacity=128)

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=128, r_max=1.0)
                    # fire-and-forget acceptance, then a lag-0 read: the
                    # read must observe every accepted event
                    await client.stream_apply(events, ack="accepted")
                    read = await client.stream_read(max_lag=0)
                    return read

        read = run_loop(scenario())
        assert read["seq"] == 500
        assert read["lag"] == 0

    def test_read_times_out_when_lag_cannot_drain(self):
        async def scenario():
            async with InterferenceServer(
                thread_config(stream_read_wait_s=0.05)
            ) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    service = server._stream
                    # manufacture unresolvable lag: accepted with no queue
                    # entry behind it, so the ingest task can never drain it
                    service.accepted += 3
                    with pytest.raises(ServeError) as info:
                        await client.stream_read(max_lag=0)
                    relaxed = await client.stream_read(max_lag=3)
                    return info.value.code, relaxed["lag"], server.stats()

        code, lag, stats = run_loop(scenario())
        assert code == "deadline_exceeded"
        assert lag == 3
        assert stats["stream_read_timeouts"] == 1

    def test_max_lag_must_be_a_nonnegative_int(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    with pytest.raises(ServeError) as info:
                        await client.stream_read(max_lag=-1)
                    return info.value.code

        assert run_loop(scenario()) == "bad_request"


class TestSubscriptions:
    def test_region_deltas_reconstruct_reads(self):
        box = (0.0, 0.0, 5.0, 5.0)  # whole arena
        events = events_for(120, capacity=64, family="mobile")

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=64, r_max=1.0)
                    sub, queue = await client.stream_subscribe(box)
                    assert sub["nodes"] == [] and sub["seq"] == 0
                    await client.stream_apply(events, ack="applied")
                    read = await client.stream_read(region=box, max_lag=0)

                    # replay the starting snapshot + pushed deltas into a
                    # local view; it must equal the server-side read
                    view = {v: c for v, c in sub["nodes"]}
                    while not queue.empty():
                        frame = queue.get_nowait()
                        assert frame["push"] == "stream_delta"
                        assert frame["sub"] == sub["sub"]
                        for v, c in frame["changed"]:
                            view[v] = c
                        for v in frame.get("left", ()):
                            view.pop(v, None)
                    await client.stream_unsubscribe(sub["sub"])
                    return view, read

        view, read = run_loop(scenario())
        assert sorted(view.items()) == [tuple(nc) for nc in read["nodes"]]

    def test_unsubscribe_stops_pushes(self):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    sub, queue = await client.stream_subscribe((0, 0, 5, 5))
                    gone = await client.stream_unsubscribe(sub["sub"])
                    assert gone["removed"] is True
                    await client.stream_apply(
                        [{"kind": "join", "node": 0, "x": 1.0, "y": 1.0,
                          "r": 0.5}],
                        ack="applied",
                    )
                    return queue.qsize(), server.stats()["stream_pushes"]

        qsize, pushes = run_loop(scenario())
        assert qsize == 0 and pushes == 0

    def test_subscription_cap(self):
        async def scenario():
            async with InterferenceServer(
                thread_config(stream_max_subscriptions=1)
            ) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    await client.stream_subscribe((0, 0, 1, 1))
                    with pytest.raises(ServeError) as info:
                        await client.stream_subscribe((0, 0, 1, 1))
                    return info.value.code

        assert run_loop(scenario()) == "bad_request"


class TestRegions:
    def test_whole_plane_read_matches_bruteforce(self):
        events = events_for(120, capacity=64, family="clustered")
        box = (-1e12, -1e12, 1e12, 1e12)

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=64, r_max=1.0)
                    await client.stream_apply(events, ack="applied")
                    read = await client.stream_read(region=box, max_lag=0)
                    sub, _ = await client.stream_subscribe(box)
                    return read["nodes"], sub["nodes"]

        read, sub = run_loop(scenario())
        reference = StreamEngine(StreamConfig(capacity=64, r_max=1.0))
        reference.apply_batch(events)
        want = [[v, reference.counts[v]] for v in reference.active_nodes()]
        assert read == sub == want

    @pytest.mark.parametrize(
        "kind", ["stream_read", "stream_subscribe"]
    )
    @pytest.mark.parametrize(
        "region",
        [
            ["-inf", 0, 1, 1],
            [0, 0, "inf", 1],
            [0, "nan", 1, 1],
            [0, 0, 1],
            [2, 0, 1, 1],
        ],
    )
    def test_bad_regions_are_bad_requests(self, kind, region):
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                    with pytest.raises(ServeError) as info:
                        await client.request(kind, {"region": region})
                    return info.value.code

        assert run_loop(scenario()) == "bad_request"

    def test_json_infinity_and_nan_literals_are_bad_requests(self):
        # Python's JSON decoder accepts the non-standard Infinity / NaN
        # tokens, so a non-Python client can send a non-finite bound
        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    await client.stream_init(capacity=32, r_max=1.0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                codes = []
                for i, token in enumerate(("-Infinity", "NaN")):
                    writer.write(
                        b'{"id":%d,"type":"stream_read","params":'
                        b'{"region":[%s,0,1,1]}}\n' % (i, token.encode())
                    )
                    await writer.drain()
                    codes.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return codes

        for reply in run_loop(scenario()):
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            assert "finite" in reply["error"]["message"]


class TestDurableLane:
    def test_restart_recovers_via_stream_init(self, tmp_path):
        d = str(tmp_path / "stream")
        events = events_for(150, capacity=64, family="clustered")

        async def ingest():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    init = await client.stream_init(
                        capacity=64, r_max=1.0, dir=d, snapshot_every=40,
                        fsync=False,
                    )
                    assert init["durable"] is True and init["recovery"] is None
                    ack = await client.stream_apply(events, ack="durable")
                    return ack

        async def reopen():
            async with InterferenceServer(thread_config()) as server:
                async with await ServeClient.connect(port=server.port) as client:
                    init = await client.stream_init(
                        capacity=64, r_max=1.0, dir=d
                    )
                    read = await client.stream_read(max_lag=0)
                    return init, read

        ack = run_loop(ingest())
        assert ack["applied_seq"] == 150
        init, read = run_loop(reopen())
        assert init["seq"] == 150
        assert init["recovery"]["snapshot_seq"] == 120
        assert init["recovery"]["replayed_to"] == 150
        reference = StreamEngine(
            StreamConfig(capacity=64, r_max=1.0, snapshot_every=0)
        )
        reference.apply_batch(events)
        assert read["n_active"] == reference.n_active
        assert read["max_interference"] == reference.max_interference()


def summary_node(events):
    """Any node id that is active after applying ``events``."""
    engine = StreamEngine(StreamConfig(capacity=64, r_max=1.0, snapshot_every=0))
    engine.apply_batch(events)
    return engine.active_nodes()[0]
