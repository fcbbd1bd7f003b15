"""The routing API: RouteKey semantics + LaneRouter differential tests.

The dispatcher's lane law used to be a hardcoded tuple inside
``InterferenceServer._lane``. ``LaneRouter`` must replicate it exactly:
this suite checks the law differentially against an inline reimplementation
of the legacy tuple, and that a server built with the default router
behaves identically to one with an explicitly injected ``LaneRouter``.
"""

import asyncio
import itertools

import pytest

from repro.serve import ServeConfig
from repro.serve.protocol import BATCHABLE_TYPES
from repro.serve.routing import LaneRouter, RouteKey, Router
from repro.serve.server import InterferenceServer
from tests.conftest import run_loop


def legacy_lane(counter, kind, params):
    """The pre-RouteKey dispatcher law, verbatim."""
    if kind in BATCHABLE_TYPES:
        return (kind, params.get("measure", "graph"), params.get("method", "auto"))
    return (kind, next(counter))


REQUESTS = [
    ("interference", {}),
    ("interference", {"measure": "node"}),
    ("interference", {"measure": "node"}),
    ("interference", {"measure": "average", "method": "grid"}),
    ("interference", {"method": "naive"}),
    ("interference", {}),
    ("build_topology", {"algorithm": "emst"}),
    ("opt", {}),
    ("opt", {}),
    ("experiment", {"experiment_id": "diag_echo"}),
]


class TestRouteKey:
    def test_frozen_and_hashable(self):
        key = RouteKey(kind="interference", measure="graph", method="auto")
        assert key == RouteKey(
            kind="interference", measure="graph", method="auto"
        )
        assert hash(key) == hash(
            RouteKey(kind="interference", measure="graph", method="auto")
        )
        with pytest.raises(Exception):
            key.kind = "other"

    def test_token_makes_key_unique(self):
        a = RouteKey(kind="opt", token=0)
        b = RouteKey(kind="opt", token=1)
        assert a != b
        assert not a.batchable
        assert RouteKey(kind="interference").batchable

    def test_shard_separates_lanes(self):
        a = RouteKey(kind="interference", measure="node", shard=0)
        b = RouteKey(kind="interference", measure="node", shard=1)
        assert a != b


class TestLaneRouterDifferential:
    def test_equality_partition_matches_legacy_law(self):
        """Same requests -> same may-share partition as the old tuple."""
        router = LaneRouter()
        counter = itertools.count()
        keys = [router.route(k, p) for k, p in REQUESTS]
        lanes = [legacy_lane(counter, k, p) for k, p in REQUESTS]
        n = len(REQUESTS)
        for i in range(n):
            for j in range(n):
                assert (keys[i] == keys[j]) == (lanes[i] == lanes[j]), (
                    REQUESTS[i], REQUESTS[j])

    def test_batchable_flag_matches_membership(self):
        router = LaneRouter()
        for kind, params in REQUESTS:
            assert router.route(kind, params).batchable == (
                kind in BATCHABLE_TYPES
            )

    def test_default_targets_is_single_shard(self):
        assert LaneRouter().targets("interference", {}) == (0,)

    def test_router_is_abstract(self):
        with pytest.raises(TypeError):
            Router()


class TestServerRouterInjection:
    def _run(self, coro):
        return run_loop(coro)

    def test_default_and_injected_router_agree(self):
        """A server with router=LaneRouter() is the default server."""

        async def results(server):
            from repro.serve.client import ServeClient

            await server.start()
            try:
                client = await ServeClient.connect(port=server.port)
                out = []
                for measure in ("graph", "average", "node"):
                    out.append(await client.request(
                        "interference",
                        {
                            "generator": "random_udg_connected",
                            "args": {"n": 16, "side": 2.0, "seed": 5},
                            "measure": measure,
                        },
                    ))
                await client.close()
                return out
            finally:
                await server.stop()

        config = ServeConfig(executor="thread", workers=1)
        default = self._run(results(InterferenceServer(config)))
        injected = self._run(
            results(InterferenceServer(config, router=LaneRouter()))
        )
        assert default == injected

    def test_custom_router_key_controls_coalescing(self, dispatch_gate):
        """A router that never batches forces per-request dispatches."""

        class SoloRouter(Router):
            def __init__(self):
                self._tokens = itertools.count()

            def route(self, kind, params):
                return RouteKey(kind=kind, token=next(self._tokens))

        async def batch_stats(router):
            from repro.serve.client import ServeClient

            # one busy executor slot: the six requests sent after the
            # first queue behind it, and the router alone decides whether
            # that backlog leaves in one dispatch or six
            dispatch_gate.shut()
            server = InterferenceServer(
                ServeConfig(executor="thread", workers=1, batch_max_size=8),
                router=router,
            )
            await server.start()
            try:
                client = await ServeClient.connect(port=server.port)

                def send(seed):
                    return asyncio.ensure_future(client.request(
                        "interference",
                        {
                            "generator": "random_udg_connected",
                            "args": {"n": 12, "side": 2.0, "seed": seed},
                        },
                    ))

                holder = send(0)
                await dispatch_gate.until(dispatch_gate.held.is_set)
                queued = [send(s) for s in range(6)]
                await dispatch_gate.until(
                    lambda: server.stats()["queue_depth"] == 6
                )
                dispatch_gate.release()
                await asyncio.gather(holder, *queued)
                await client.close()
                return server.stats()
            finally:
                await server.stop()

        solo = run_loop(batch_stats(SoloRouter()))
        assert solo["max_batch_size"] == 1
        assert solo["batches"] == 7
        lane = run_loop(batch_stats(LaneRouter()))
        assert lane["max_batch_size"] >= 2
        assert lane["max_batch_size"] == 6


class TestApiExports:
    def test_routing_names_on_facade(self):
        from repro import api

        for name in (
            "RouteKey", "Router", "LaneRouter", "ClusterRouter",
            "TileGrid", "ClusterConfig", "ShardCluster", "BatchQuery",
            "factor_tiles", "required_ghost", "PROTOCOL_VERSION",
        ):
            assert name in api.__all__, name
            assert getattr(api, name) is not None
