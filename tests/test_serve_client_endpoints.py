"""ServeClient endpoint lists: multi-server connect, failover, redirects.

``test_serve_resilience.py`` covers single-endpoint reconnect/retry; this
suite covers the endpoint-directory features the shard cluster leans on —
first-reachable connect, round-robin failover under a retry policy, and
redirect targets being adopted into the endpoint list.
"""


import pytest

from repro.serve import InterferenceServer, RetryPolicy, ServeConfig
from repro.serve.client import ServeClient
from tests.conftest import run_loop


def thread_server():
    return InterferenceServer(ServeConfig(executor="thread", workers=1))


class TestConnect:
    def test_first_reachable_endpoint_wins(self):
        async def scenario():
            server = thread_server()
            await server.start()
            try:
                # a port nothing listens on, then the live server
                dead = ("127.0.0.1", 1)
                client = await ServeClient.connect(
                    endpoints=[dead, ("127.0.0.1", server.port)]
                )
                try:
                    assert client.endpoint == ("127.0.0.1", server.port)
                    assert await client.ping() == {"pong": True}
                finally:
                    await client.close()
            finally:
                await server.stop()

        run_loop(scenario())

    def test_no_endpoint_reachable_reports_count(self):
        async def scenario():
            with pytest.raises(ConnectionError, match="out of 2"):
                await ServeClient.connect(
                    endpoints=[("127.0.0.1", 1), ("127.0.0.1", 2)]
                )

        run_loop(scenario())

    def test_host_port_form_still_works(self):
        async def scenario():
            server = thread_server()
            await server.start()
            try:
                client = await ServeClient.connect(port=server.port)
                try:
                    assert client.endpoint == ("127.0.0.1", server.port)
                    assert await client.ping() == {"pong": True}
                finally:
                    await client.close()
            finally:
                await server.stop()

        run_loop(scenario())


class TestFailover:
    def test_retry_fails_over_to_surviving_endpoint(self):
        """Kill the connected server; the retried idempotent request must
        land on the other endpoint in the list."""

        async def scenario():
            a, b = thread_server(), thread_server()
            await a.start()
            await b.start()
            try:
                client = await ServeClient.connect(
                    endpoints=[
                        ("127.0.0.1", a.port), ("127.0.0.1", b.port)
                    ],
                    retry=RetryPolicy(
                        attempts=4, base_delay_s=0.01, seed=0
                    ),
                )
                try:
                    assert await client.ping() == {"pong": True}
                    await a.stop()
                    assert await client.ping() == {"pong": True}
                    assert client.endpoint == ("127.0.0.1", b.port)
                finally:
                    await client.close()
            finally:
                await b.stop()

        run_loop(scenario())

    def test_reconnect_cycles_through_endpoints(self):
        async def scenario():
            a, b = thread_server(), thread_server()
            await a.start()
            await b.start()
            try:
                client = await ServeClient.connect(
                    endpoints=[
                        ("127.0.0.1", a.port), ("127.0.0.1", b.port)
                    ]
                )
                try:
                    first = client.endpoint
                    await client._reconnect()
                    second = client.endpoint
                    await client._reconnect()
                    assert first != second
                    assert client.endpoint == first
                finally:
                    await client.close()
            finally:
                await a.stop()
                await b.stop()

        run_loop(scenario())

    def test_single_endpoint_reconnect_stays_put(self):
        async def scenario():
            server = thread_server()
            await server.start()
            try:
                client = await ServeClient.connect(port=server.port)
                try:
                    before = client.endpoint
                    await client._reconnect()
                    assert client.endpoint == before
                    assert await client.ping() == {"pong": True}
                finally:
                    await client.close()
            finally:
                await server.stop()

        run_loop(scenario())


class TestRedirectAdoption:
    def test_redirect_target_joins_the_endpoint_list(self):
        async def scenario():
            a, b = thread_server(), thread_server()
            await a.start()
            await b.start()
            try:
                client = await ServeClient.connect(port=a.port)
                try:
                    target = ("127.0.0.1", b.port)
                    await client._reconnect(target)
                    assert client.endpoint == target
                    assert target in client._endpoints
                    assert await client.ping() == {"pong": True}
                    # re-adopting the same target must not duplicate it
                    await client._reconnect(target)
                    assert client._endpoints.count(target) == 1
                finally:
                    await client.close()
            finally:
                await a.stop()
                await b.stop()

        run_loop(scenario())
