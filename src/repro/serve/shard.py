"""The multi-process shard cluster: front-end + one worker per tile.

Topology::

    client ──> ShardCluster front-end (router, scatter/gather, merge)
                  │ fan-out: one sub-request per owner shard
                  ├──> worker 0 (InterferenceServer, tile 0 + ghosts)
                  ├──> worker 1
                  └──> ...

The front-end speaks the ordinary newline-delimited JSON protocol on its
public port, so every existing client — :class:`ServeClient`, the load
generator, ``repro loadgen`` — works against a cluster unchanged.
Internally it plans each request with
:class:`repro.cluster.ClusterRouter`: eligible ``interference`` requests
scatter to the shards owning their query region (each worker computes
the partial for the nodes its tile owns, from owned + ghost nodes only)
and the gathered partials merge *exactly* (ghost dedup by node id —
ownership is a partition, so each count has one reporter). Everything
else forwards to one shard round-robin.

Worker modes
------------
``inprocess`` runs the workers as :class:`InterferenceServer` instances
on the front-end's own event loop (thread executors) — no true
parallelism, but identical routing/merge semantics; this is what the
differential tests exercise. ``subprocess`` spawns each worker through
``repro serve`` in its own Python process (the CLI and benchmark mode):
k worker processes give k-way CPU parallelism without sharing a GIL.

Failure semantics: a worker that cannot be reached maps to
``shard_unavailable``; per-item worker errors keep their code (a
``bad_request`` from any shard is the request's ``bad_request``).
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
from collections import deque
from dataclasses import dataclass

# NB: only the numpy-only tiles module at import time — the router
# module imports repro.serve.routing, which would cycle back into this
# package when ``repro.cluster`` is the first thing imported.
from repro.cluster.tiles import TileGrid
from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_SHARD_UNAVAILABLE,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.server import InterferenceServer

_BANNER_RE = re.compile(r"listening on [\d.]+:(\d+)")

#: Lines of each subprocess worker's output retained for diagnostics.
_WORKER_LOG_LINES = 400


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """Options for :class:`ShardCluster`.

    Parameters
    ----------
    shards:
        Worker (= tile) count; factored into a near-square grid.
    host, port:
        Front-end bind address (``port=0`` picks an ephemeral port).
    bounds:
        ``(x0, y0, x1, y1)`` plane rectangle tiled uniformly. Instances
        outside it still work — edge tiles own everything beyond their
        cuts — but balance degrades; set it to the instance envelope.
    ghost:
        Ghost-margin width. Must be >= ``required_ghost(unit)`` of the
        requests to fan out; smaller margins demote requests to
        single-shard forwards (correct, just not parallel).
    grid:
        Explicit :meth:`TileGrid.to_jsonable` wire form; overrides
        ``bounds``/``ghost`` when given (``shards`` must match its tile
        count).
    worker_mode:
        ``"inprocess"`` or ``"subprocess"`` (module docstring).
    worker_workers, worker_executor:
        Executor shape of each worker server. The defaults (one thread)
        put the parallelism between worker processes, not inside them.
    batch_max_size, queue_limit, default_deadline_ms:
        Passed through to each worker's :class:`ServeConfig`.
    max_line_bytes:
        Frame limit for the cluster's links *and* the front-end's public
        port. Whole-shard partials (ids + counts for ~n/k nodes) blow
        past the single-server default, hence the 16 MB default here.
    drain_timeout_s:
        Worker drain budget at :meth:`ShardCluster.stop`.
    """

    shards: int = 4
    host: str = "127.0.0.1"
    port: int = 0
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    ghost: float = 2.5
    grid: dict | None = None
    worker_mode: str = "inprocess"
    worker_workers: int = 1
    worker_executor: str = "thread"
    batch_max_size: int = 32
    queue_limit: int = 256
    default_deadline_ms: float | None = None
    max_line_bytes: int = 16 * MAX_LINE_BYTES
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.worker_mode not in ("inprocess", "subprocess"):
            raise ValueError("worker_mode must be 'inprocess' or 'subprocess'")
        if len(tuple(self.bounds)) != 4:
            raise ValueError("bounds must be (x0, y0, x1, y1)")
        if self.worker_workers < 1:
            raise ValueError("worker_workers must be >= 1")
        if self.worker_executor not in ("process", "thread"):
            raise ValueError("worker_executor must be 'process' or 'thread'")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")

    def tile_grid(self) -> TileGrid:
        if self.grid is not None:
            grid = TileGrid.from_jsonable(self.grid)
            if grid.k != self.shards:
                raise ValueError(
                    f"explicit grid has {grid.k} tiles for {self.shards} shards"
                )
            return grid
        return TileGrid.uniform(self.bounds, self.shards, ghost=self.ghost)

    def worker_config(self) -> ServeConfig:
        return ServeConfig(
            host=self.host,
            port=0,
            workers=self.worker_workers,
            executor=self.worker_executor,
            batch_max_size=self.batch_max_size,
            queue_limit=self.queue_limit,
            default_deadline_ms=self.default_deadline_ms,
            max_line_bytes=self.max_line_bytes,
            drain_timeout_s=self.drain_timeout_s,
        )


class ShardCluster:
    """Spatially sharded serve cluster (see the module docstring).

    Usage::

        async with ShardCluster(ClusterConfig(shards=4)) as cluster:
            client = await ServeClient.connect(port=cluster.port)
            ...
    """

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.grid = self.config.tile_grid()
        self.router = None  # ClusterRouter, bound at start()
        self._workers: list[InterferenceServer] = []
        self._procs: list[asyncio.subprocess.Process] = []
        self._log_tasks: list[asyncio.Task] = []
        self._clients: list[ServeClient] = []
        self._endpoints: list[tuple[str, int]] = []
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self.worker_logs: list[deque[str]] = []
        self._stats = {
            "requests": 0,
            "pings": 0,
            "fanout": 0,
            "forwarded": 0,
            "bad_request": 0,
            "errors": 0,
            "shard_unavailable": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the workers, link to them and open the front-end port.

        A failure at any step (a worker that prints no banner, a refused
        link) stops whatever already started before it propagates: no
        worker process or in-process server outlives a failed start.
        """
        if self._server is not None:
            raise RuntimeError("cluster already started")
        try:
            await self._start()
        except BaseException:
            await self.stop()
            raise

    async def _start(self) -> None:
        from repro.cluster.router import ClusterRouter

        cfg = self.config
        # a stopped (or failed) start leaves its endpoints and logs behind
        self._endpoints = []
        self.worker_logs = []
        if cfg.worker_mode == "inprocess":
            await self._start_inprocess_workers()
        else:
            await self._start_subprocess_workers()
        self.router = ClusterRouter(self.grid, endpoints=self._endpoints)
        for host, port in self._endpoints:
            self._clients.append(
                await ServeClient.connect(
                    host, port, limit=cfg.max_line_bytes
                )
            )
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port, limit=cfg.max_line_bytes
        )

    async def _start_inprocess_workers(self) -> None:
        cfg = self.config
        worker_cfg = cfg.worker_config()
        for _ in range(cfg.shards):
            worker = InterferenceServer(worker_cfg)
            await worker.start()
            self._workers.append(worker)
            self._endpoints.append((cfg.host, worker.port))
        endpoints = [list(e) for e in self._endpoints]
        for index, worker in enumerate(self._workers):
            worker.set_shard_info({"index": index, "endpoints": endpoints})

    async def _start_subprocess_workers(self) -> None:
        cfg = self.config
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        for index in range(cfg.shards):
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--host", cfg.host, "--port", "0",
                "--workers", str(cfg.worker_workers),
                "--executor", cfg.worker_executor,
                "--batch-max", str(cfg.batch_max_size),
                "--queue-limit", str(cfg.queue_limit),
                "--max-line-bytes", str(cfg.max_line_bytes),
                "--shard-index", str(index),
                "--drain-timeout", str(cfg.drain_timeout_s),
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.STDOUT,
                env=env,
            )
            self._procs.append(proc)
            log: deque[str] = deque(maxlen=_WORKER_LOG_LINES)
            self.worker_logs.append(log)
            # stderr shares the pipe, so warnings may precede the
            # banner: log them and read on
            match = None
            while match is None:
                line = await proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"shard {index} printed no listening banner: "
                        f"{list(log)!r}"
                    )
                log.append(line.decode("utf-8", "replace").rstrip("\n"))
                match = _BANNER_RE.search(log[-1])
            self._endpoints.append((cfg.host, int(match.group(1))))
            self._log_tasks.append(
                asyncio.create_task(self._pump_log(proc, log))
            )

    @staticmethod
    async def _pump_log(proc, log: deque) -> None:
        while True:
            line = await proc.stdout.readline()
            if not line:
                return
            log.append(line.decode("utf-8", "replace").rstrip("\n"))

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("cluster not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """Per-shard worker ``(host, port)`` endpoints."""
        return list(self._endpoints)

    def stats(self) -> dict:
        """Front-end counters plus per-shard worker stats (inprocess)."""
        out = {"frontend": dict(self._stats), "shards": []}
        for worker in self._workers:
            out["shards"].append(worker.stats())
        return out

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass
        for client in self._clients:
            await client.close()
        self._clients = []
        for worker in self._workers:
            await worker.stop()
        self._workers = []
        for proc in self._procs:
            if proc.returncode is None:
                try:
                    proc.send_signal(signal.SIGINT)
                except ProcessLookupError:
                    continue
        for proc in self._procs:
            try:
                await asyncio.wait_for(
                    proc.wait(), self.config.drain_timeout_s + 5.0
                )
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        self._procs = []
        for task in self._log_tasks:
            task.cancel()
        for task in self._log_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._log_tasks = []

    async def __aenter__(self) -> "ShardCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- front-end protocol -------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._write(
                        writer, wlock,
                        error_response(None, ERR_BAD_REQUEST, "frame too long"),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                t0 = loop.time()
                req_id = None
                try:
                    message = decode_message(
                        line, limit=self.config.max_line_bytes
                    )
                    req_id = message.get("id")
                    if not isinstance(req_id, (int, str)):
                        req_id = None
                    req_id, kind, params, deadline_ms = parse_request(message)
                except ProtocolError as exc:
                    self._stats["bad_request"] += 1
                    await self._write(
                        writer, wlock,
                        error_response(req_id, ERR_BAD_REQUEST, str(exc)),
                    )
                    continue
                self._stats["requests"] += 1
                if kind == "ping":
                    self._stats["pings"] += 1
                    await self._write(
                        writer, wlock,
                        ok_response(req_id, {"pong": True},
                                    ms=(loop.time() - t0) * 1e3),
                    )
                    continue
                if kind.startswith("stream_"):
                    self._stats["bad_request"] += 1
                    await self._write(
                        writer, wlock,
                        error_response(
                            req_id, ERR_BAD_REQUEST,
                            "the stream lane is stateful per-server and not "
                            "available through a cluster front-end; connect "
                            "to a worker directly",
                        ),
                    )
                    continue
                task = asyncio.create_task(
                    self._relay(req_id, kind, params, deadline_ms,
                                writer, wlock, t0)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _write(self, writer, wlock, response: dict) -> None:
        try:
            async with wlock:
                writer.write(
                    encode_message(response, limit=self.config.max_line_bytes)
                )
                if writer.transport.get_write_buffer_size() > 64 * 1024:
                    await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _relay(
        self, req_id, kind, params, deadline_ms, writer, wlock, t0
    ) -> None:
        loop = asyncio.get_running_loop()
        response = await self._execute(req_id, kind, params, deadline_ms, t0)
        if response is not None:
            if not response.get("ok"):
                code = (response.get("error") or {}).get("code")
                if code == ERR_SHARD_UNAVAILABLE:
                    self._stats["shard_unavailable"] += 1
                elif code == ERR_BAD_REQUEST:
                    self._stats["bad_request"] += 1
                else:
                    self._stats["errors"] += 1
            await self._write(writer, wlock, response)
        del loop

    async def _execute(self, req_id, kind, params, deadline_ms, t0) -> dict:
        loop = asyncio.get_running_loop()
        parts = self.router.plan(kind, params)
        if len(parts) == 1 and "shard" not in parts[0][1]:
            # singleton forward: pass the worker's envelope through
            # verbatim (codes, ms) under the caller's correlation id
            self._stats["forwarded"] += 1
            shard, sub = parts[0]
            try:
                raw = await self._clients[shard].request_raw(
                    kind, sub, deadline_ms=deadline_ms
                )
            except (ConnectionError, OSError) as exc:
                return error_response(
                    req_id, ERR_SHARD_UNAVAILABLE,
                    f"shard {shard} unreachable: {exc}",
                    ms=(loop.time() - t0) * 1e3,
                )
            response = dict(raw)
            response["id"] = req_id
            return response
        self._stats["fanout"] += 1
        results = await asyncio.gather(
            *(
                self._clients[shard].request(
                    kind, sub, deadline_ms=deadline_ms
                )
                for shard, sub in parts
            ),
            return_exceptions=True,
        )
        ms = (loop.time() - t0) * 1e3
        for (shard, _), result in zip(parts, results):
            if isinstance(result, ServeError):
                return error_response(
                    req_id, result.code, result.message, ms=ms,
                    details=result.details or None,
                )
            if isinstance(result, (ConnectionError, OSError)):
                return error_response(
                    req_id, ERR_SHARD_UNAVAILABLE,
                    f"shard {shard} unreachable: {result}", ms=ms,
                )
            if isinstance(result, BaseException):
                return error_response(
                    req_id, ERR_INTERNAL,
                    f"scatter failed: {result!r}", ms=ms,
                )
        try:
            merged = self.router.merge(params, list(results))
        except ValueError as exc:
            return error_response(
                req_id, ERR_INTERNAL, f"merge failed: {exc}", ms=ms
            )
        return ok_response(req_id, merged, ms=(loop.time() - t0) * 1e3)
