"""Differential property suite for the shard cluster.

The contract under test: for every shard count k, a ShardCluster's answer
to an ``interference`` request is *bit-identical* to the single-process
server's (and to the in-process ground truth) — the spatial decomposition
is an implementation detail that must never leak into results. Plus the
new failure modes: ``wrong_shard`` redirects and ``shard_unavailable``.
"""

import asyncio
import os
import sys

import numpy as np
import pytest

from repro.cluster import ClusterRouter, TileGrid, required_ghost
from repro.geometry import random_uniform_square
from repro.interference.receiver import node_interference
from repro.model import unit_disk_graph
from repro.serve import InterferenceServer, ServeConfig
from repro.serve.client import ServeClient, ServeError
from repro.serve.shard import ClusterConfig, ShardCluster

UNIT = 1.0
SIDE = 8.0


def uniform_instance():
    return random_uniform_square(300, side=SIDE, seed=42)


def clustered_instance():
    rng = np.random.default_rng(7)
    return np.concatenate([
        rng.normal([2.0, 2.0], 0.5, size=(120, 2)),
        rng.normal([6.0, 6.0], 0.5, size=(120, 2)),
        rng.uniform(0.0, SIDE, size=(60, 2)),
    ])


def as_list(pos):
    return [[float(x), float(y)] for x, y in pos]


async def cluster_answer(pos, k, params, *, balanced=False):
    kwargs = dict(
        shards=k,
        worker_mode="inprocess",
        bounds=(0.0, 0.0, SIDE, SIDE),
        ghost=2.5,
    )
    if balanced:
        kwargs["grid"] = TileGrid.balanced(pos, k, ghost=2.5).to_jsonable()
        kwargs.pop("bounds")
    async with ShardCluster(ClusterConfig(**kwargs)) as cluster:
        client = await ServeClient.connect(
            port=cluster.port, limit=cluster.config.max_line_bytes
        )
        try:
            full = dict(params)
            full["positions"] = as_list(pos)
            result = await client.request("interference", full)
            return result, cluster.stats()
        finally:
            await client.close()


async def single_server_answer(pos, params):
    server = InterferenceServer(ServeConfig(
        executor="thread", workers=1, max_line_bytes=16_000_000
    ))
    await server.start()
    try:
        client = await ServeClient.connect(
            port=server.port, limit=16_000_000
        )
        try:
            full = dict(params)
            full["positions"] = as_list(pos)
            return await client.request("interference", full)
        finally:
            await client.close()
    finally:
        await server.stop()


class TestDifferentialExactness:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "instance", [uniform_instance, clustered_instance], ids=["uniform", "clustered"]
    )
    def test_bit_identical_to_single_process(self, k, instance):
        pos = instance()
        topo = unit_disk_graph(pos, unit=UNIT)
        vec = node_interference(topo)
        for measure, expected in (
            ("graph", int(vec.max())),
            ("average", float(vec.mean())),
            ("node", [int(x) for x in vec]),
        ):
            params = {"unit": UNIT, "measure": measure}
            sharded, stats = asyncio.run(cluster_answer(pos, k, params))
            single = asyncio.run(single_server_answer(pos, params))
            assert sharded == single, (k, measure)
            assert sharded["value"] == expected
            assert sharded["n_edges"] == len(topo.edges)
            assert stats["frontend"]["fanout"] == 1

    @pytest.mark.parametrize("k", [2, 4])
    def test_balanced_grid_is_equally_exact(self, k):
        pos = clustered_instance()
        params = {"unit": UNIT, "measure": "node"}
        sharded, _ = asyncio.run(
            cluster_answer(pos, k, params, balanced=True)
        )
        single = asyncio.run(single_server_answer(pos, params))
        assert sharded == single


class TestRegionQueries:
    @pytest.mark.parametrize("region", [
        [3.5, 0.0, 4.5, 8.0],        # straddles the vertical cut of k=4
        [3.9, 3.9, 4.1, 4.1],        # tiny square on the 4-way corner
        [4.05, 4.05, 4.6, 4.6],      # entirely inside one tile's ghost zone
        [0.0, 0.0, 8.0, 8.0],        # everything
        [7.5, 7.5, 7.9, 7.9],        # corner tile only
    ])
    @pytest.mark.parametrize("measure", ["node", "average"])
    def test_border_and_ghost_regions_match(self, region, measure):
        pos = uniform_instance()
        params = {"unit": UNIT, "measure": measure, "region": region}
        sharded, _ = asyncio.run(cluster_answer(pos, 4, params))
        single = asyncio.run(single_server_answer(pos, params))
        assert sharded == single

    def test_region_scatters_only_to_owners(self):
        pos = uniform_instance()
        grid = TileGrid.uniform((0.0, 0.0, SIDE, SIDE), 4, ghost=2.5)
        router = ClusterRouter(grid)
        params = {
            "positions": as_list(pos), "unit": UNIT, "measure": "node",
            "region": [0.5, 0.5, 1.5, 1.5],
        }
        assert router.targets("interference", params) == (0,)
        params["region"] = [3.5, 0.5, 4.5, 1.5]
        assert router.targets("interference", params) == (0, 1)

    def test_empty_region_yields_empty_ids(self):
        pos = uniform_instance()
        params = {
            "unit": UNIT, "measure": "node",
            "region": [100.0, 100.0, 101.0, 101.0],
        }
        sharded, _ = asyncio.run(cluster_answer(pos, 4, params))
        single = asyncio.run(single_server_answer(pos, params))
        assert sharded == single
        assert sharded["ids"] == [] and sharded["value"] == []


class TestGhostFallback:
    def test_undersized_ghost_forwards_instead_of_fanning_out(self):
        """unit too large for the margin -> single-shard forward, exact."""
        pos = uniform_instance()
        unit = 2.0
        assert required_ghost(unit) > 2.5
        params = {"unit": unit, "measure": "graph"}
        sharded, stats = asyncio.run(cluster_answer(pos, 4, params))
        single = asyncio.run(single_server_answer(pos, params))
        assert sharded == single
        assert stats["frontend"]["fanout"] == 0
        assert stats["frontend"]["forwarded"] == 1


class TestShardErrors:
    def test_wrong_shard_redirect_is_transparent(self):
        """A shard-spec'd request to the wrong worker redirects and lands."""

        async def scenario():
            config = ClusterConfig(
                shards=4, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            )
            async with ShardCluster(config) as cluster:
                grid = cluster.grid.to_jsonable()
                pos = as_list(uniform_instance())
                # connect straight to worker 0, ask for shard 2's partial
                host, port = cluster.endpoints[0]
                client = await ServeClient.connect(
                    host, port, limit=config.max_line_bytes
                )
                try:
                    result = await client.request("interference", {
                        "positions": pos, "unit": UNIT, "measure": "node",
                        "shard": {"index": 2, "grid": grid},
                    })
                    # the redirect must land on the owner
                    assert result["shard"] == 2
                    assert client.endpoint == tuple(cluster.endpoints[2])
                finally:
                    await client.close()
                stats = cluster.stats()
                assert stats["shards"][0]["rejected_wrong_shard"] == 1

        asyncio.run(scenario())

    def test_wrong_shard_without_endpoints_surfaces_the_error(self):
        async def scenario():
            server = InterferenceServer(
                ServeConfig(executor="thread", workers=1)
            )
            await server.start()
            server.set_shard_info({"index": 0})  # no endpoint directory
            grid = TileGrid.uniform(
                (0.0, 0.0, SIDE, SIDE), 4, ghost=2.5
            ).to_jsonable()
            try:
                client = await ServeClient.connect(port=server.port)
                try:
                    with pytest.raises(ServeError) as err:
                        await client.request("interference", {
                            "positions": [[0.0, 0.0], [0.5, 0.0]],
                            "unit": UNIT, "measure": "node",
                            "shard": {"index": 3, "grid": grid},
                        })
                    assert err.value.code == "wrong_shard"
                    assert err.value.details.get("shards") == [3]
                finally:
                    await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_matching_shard_spec_is_served(self):
        async def scenario():
            server = InterferenceServer(
                ServeConfig(executor="thread", workers=1)
            )
            await server.start()
            server.set_shard_info({"index": 1})
            grid = TileGrid.uniform(
                (0.0, 0.0, SIDE, SIDE), 4, ghost=2.5
            ).to_jsonable()
            try:
                client = await ServeClient.connect(port=server.port)
                try:
                    result = await client.request("interference", {
                        "positions": as_list(uniform_instance()),
                        "unit": UNIT, "measure": "node",
                        "shard": {"index": 1, "grid": grid},
                    })
                    assert result["shard"] == 1
                    assert len(result["ids"]) == len(result["counts"])
                finally:
                    await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_dead_worker_maps_to_shard_unavailable(self):
        async def scenario():
            config = ClusterConfig(
                shards=2, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            )
            cluster = ShardCluster(config)
            await cluster.start()
            try:
                client = await ServeClient.connect(
                    port=cluster.port, limit=config.max_line_bytes
                )
                try:
                    # kill worker 1 behind the front-end's back
                    await cluster._workers[1].stop()
                    with pytest.raises(ServeError) as err:
                        await client.request("interference", {
                            "positions": as_list(uniform_instance()),
                            "unit": UNIT, "measure": "graph",
                        })
                    assert err.value.code == "shard_unavailable"
                finally:
                    await client.close()
            finally:
                cluster._workers = cluster._workers[:1]
                await cluster.stop()

        asyncio.run(scenario())


class TestFrontEndProtocol:
    def test_ping_and_stream_rejection(self):
        async def scenario():
            config = ClusterConfig(
                shards=2, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            )
            async with ShardCluster(config) as cluster:
                client = await ServeClient.connect(
                    port=cluster.port, limit=config.max_line_bytes
                )
                try:
                    assert await client.ping() == {"pong": True}
                    with pytest.raises(ServeError) as err:
                        await client.request("stream_init", {"capacity": 8})
                    assert err.value.code == "bad_request"
                finally:
                    await client.close()

        asyncio.run(scenario())

    def test_worker_bad_request_passes_through(self):
        async def scenario():
            config = ClusterConfig(
                shards=2, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            )
            async with ShardCluster(config) as cluster:
                client = await ServeClient.connect(
                    port=cluster.port, limit=config.max_line_bytes
                )
                try:
                    with pytest.raises(ServeError) as err:
                        await client.request("interference", {
                            "positions": [[0.0, 0.0]],
                            "unit": -1.0, "measure": "graph",
                        })
                    assert err.value.code == "bad_request"
                finally:
                    await client.close()

        asyncio.run(scenario())


async def _port_refuses(port):
    try:
        _, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return True
    writer.close()
    return False


class TestStartFailure:
    """A start-up step that raises stops everything already started and
    propagates out of ``async with`` — no worker outlives it."""

    def test_refused_link_stops_inprocess_workers(self, monkeypatch):
        import repro.serve.shard as shard

        started = []
        real_start = InterferenceServer.start

        async def recording_start(server):
            await real_start(server)
            started.append((server, server.port))

        real_connect = ServeClient.connect
        calls = []

        async def refusing_connect(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ConnectionRefusedError("link refused")
            return await real_connect(*args, **kwargs)

        monkeypatch.setattr(InterferenceServer, "start", recording_start)
        monkeypatch.setattr(shard.ServeClient, "connect", refusing_connect)

        async def scenario():
            cluster = ShardCluster(ClusterConfig(
                shards=3, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            ))
            with pytest.raises(ConnectionRefusedError, match="link refused"):
                async with cluster:
                    pytest.fail("the body must not run")
            assert len(started) == 3
            for worker, port in started:
                assert worker._executor is None
                assert await _port_refuses(port)
            assert cluster._workers == [] and cluster._clients == []
            assert cluster._server is None

        asyncio.run(scenario())

    def test_restarts_after_a_failed_start_and_after_stop(self, monkeypatch):
        import repro.serve.shard as shard

        real_connect = ServeClient.connect
        calls = []

        async def refuse_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ConnectionRefusedError("link refused")
            return await real_connect(*args, **kwargs)

        monkeypatch.setattr(shard.ServeClient, "connect", refuse_once)

        async def scenario():
            cluster = ShardCluster(ClusterConfig(
                shards=2, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            ))
            with pytest.raises(ConnectionRefusedError):
                await cluster.start()
            for _ in range(2):  # after the failed start, then after stop()
                await cluster.start()
                try:
                    assert len(cluster.endpoints) == 2
                    client = await real_connect(
                        port=cluster.port, limit=cluster.config.max_line_bytes
                    )
                    try:
                        assert await client.ping() == {"pong": True}
                    finally:
                        await client.close()
                finally:
                    await cluster.stop()

        asyncio.run(scenario())

    def test_worker_without_banner_stops_spawned_processes(self, monkeypatch):
        import repro.serve.shard as shard

        real_exec = asyncio.create_subprocess_exec
        procs = []

        async def spawn(*cmd, **kwargs):
            if len(procs) == 1:
                # the second worker exits without printing its banner
                cmd = (sys.executable, "-c", "pass")
            proc = await real_exec(*cmd, **kwargs)
            procs.append(proc)
            return proc

        monkeypatch.setattr(shard.asyncio, "create_subprocess_exec", spawn)

        async def scenario():
            cluster = ShardCluster(ClusterConfig(
                shards=3, worker_mode="subprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            ))
            with pytest.raises(RuntimeError, match="shard 1 printed no"):
                async with cluster:
                    pytest.fail("the body must not run")
            assert len(procs) == 2  # start-up stopped at the failing worker
            for proc in procs:
                assert proc.returncode is not None
                with pytest.raises(ProcessLookupError):
                    os.kill(proc.pid, 0)
            assert cluster._procs == [] and cluster._log_tasks == []
            # the healthy worker drained on SIGINT and reported it
            assert any("listening on" in line for line in cluster.worker_logs[0])

        asyncio.run(scenario())
