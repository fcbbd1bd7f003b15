"""The asyncio interference server: admission, micro-batching, deadlines.

Request lifecycle
-----------------
::

    conn reader ──> admission ──> FIFO queue ──> dispatcher ──> worker
                      │ overloaded / shutting_down    (micro-batches)  │
                      └────────────> immediate rejection     socketpair channel
    conn writer <── per-request future <── batch completion <──────────┘

- **Admission** — at most ``ServeConfig.queue_limit`` requests may wait in
  the queue; excess load is rejected *immediately* with ``overloaded``
  (explicit load shedding keeps accepted-request latency bounded instead
  of letting the queue collapse under a burst). ``ping`` is answered
  inline and never queued.
- **Micro-batching** — work-conserving: the dispatcher takes a free
  executor slot, then dispatches the oldest queued request together with
  every queued *compatible* request (equal
  :class:`repro.serve.routing.RouteKey`, produced by the server's
  :class:`~repro.serve.routing.Router`), up to ``batch_max_size``. A
  batch is never held open on a timer: an idle server runs a lone request
  at once, and coalescing comes from the backlog that builds while every
  slot is busy — the one case where amortizing the worker round trip
  over many small requests pays. Non-batchable types dispatch
  individually. Items in a batch fail independently.
- **Deadlines** — a request's ``deadline_ms`` starts at admission. A
  queued request that expires before dispatch is cancelled without
  executing; a non-``opt`` request that completes after its deadline gets
  ``deadline_exceeded`` (the promise is the deadline, not the payload).
  ``opt`` requests instead have their remaining deadline translated into
  the solver's ``time_budget_s``, so an over-deadline solve returns its
  best *certified* ``[lb, ub]`` bracket — never an error.
- **Workers** — ``executor="process"`` runs batches on a
  :class:`~repro.serve.workers.WorkerPool`: forked processes, each on its
  own socketpair channel that the event loop reads directly, one batch
  per worker at a time. A worker that dies fails only its own batch
  (``internal``) and is replaced (``pool_respawns``).
  ``executor="thread"`` runs batches on a ``ThreadPoolExecutor``.
- **Drain** — ``stop()`` stops accepting, lets queued + in-flight work
  finish within ``drain_timeout_s``, answers what is left
  ``shutting_down``, then closes the worker channels and reaps the
  processes (terminate → join → kill,
  :func:`repro.runner.pool.reap_processes`); no worker outlives it.

Instrumentation (:mod:`repro.obs`, when enabled): ``serve.request`` /
``serve.batch`` spans (recorded via ``record_span`` — completions are
concurrent, so live span nesting would lie); per request
``serve.queue_wait`` (admission → dispatch) and, on process workers, per
batch ``serve.worker`` (handler wall in the worker) and ``serve.ipc``
(channel round trip minus handler wall), so a request's
``serve.request`` splits into those three; counters
``serve.accepted``, ``serve.completed``, ``serve.rejected.overloaded``,
``serve.rejected.shutting_down``, ``serve.deadline_exceeded``,
``serve.error.bad_request``, ``serve.error.internal``, ``serve.batches``,
``serve.batch.requests``, and gauges ``serve.queue_depth`` /
``serve.inflight_batches``. The same totals are always available —
enabled or not — from :meth:`InterferenceServer.stats`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.serve.config import ServeConfig
from repro.serve.handlers import run_batch
from repro.serve.routing import LaneRouter, Router
from repro.serve.stream import StreamService
from repro.serve.workers import WorkerLost, WorkerPool
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_WRONG_SHARD,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)

#: Floor on the solver budget handed to an already-expired ``opt`` request:
#: enough to compute the heuristic + combinatorial bracket, tiny enough to
#: honour the spirit of the deadline.
_OPT_MIN_BUDGET_S = 0.005

#: Error-name prefixes from the worker that map to ``bad_request`` (caller
#: error) rather than ``internal`` (server fault).
_CALLER_ERRORS = ("ValueError", "KeyError", "TypeError")


class _Pending:
    """One admitted request waiting for (or undergoing) execution."""

    __slots__ = (
        "req_id", "kind", "params", "lane", "enqueued_at", "deadline_at",
        "future", "abandoned",
    )

    def __init__(self, req_id, kind, params, lane, enqueued_at, deadline_at):
        self.req_id = req_id
        self.kind = kind
        self.params = params
        self.lane = lane
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.abandoned = False


class InterferenceServer:
    """JSON-over-TCP interference service (see the module docstring).

    Usage::

        server = InterferenceServer(ServeConfig(port=0, workers=2))
        await server.start()
        print(server.port)          # ephemeral port resolved
        ...
        await server.stop()         # graceful drain
    """

    def __init__(
        self, config: ServeConfig | None = None, *,
        router: Router | None = None,
    ):
        self.config = config or ServeConfig()
        #: The dispatch router (``RouteKey`` producer). Defaults to the
        #: single-shard :class:`LaneRouter`; a cluster front-end injects
        #: its shard-aware router instead.
        self.router: Router = router if router is not None else LaneRouter()
        self._server: asyncio.base_events.Server | None = None
        self._executor = None
        self._queue: deque[_Pending] = deque()
        self._arrival = asyncio.Event()
        self._dispatcher: asyncio.Task | None = None
        #: running ``_execute_batch`` tasks: the loop only holds tasks
        #: weakly, so an unreferenced batch could be collected mid-flight
        self._batch_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._sem = asyncio.Semaphore(self.config.inflight_limit)
        self._draining = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._stream = StreamService(self.config, self._write)
        #: Cluster identity (``{"index": i, "endpoints": [[h, p], ...]}``)
        #: set by a shard front-end; ``None`` for standalone servers.
        self.shard_info: dict | None = None
        self._stats = {
            "pool_respawns": 0,
            "accepted": 0,
            "completed": 0,
            "pings": 0,
            "bad_request": 0,
            "internal_errors": 0,
            "rejected_overloaded": 0,
            "rejected_shutting_down": 0,
            "rejected_wrong_shard": 0,
            "deadline_exceeded": 0,
            "batches": 0,
            "batched_requests": 0,
            "max_batch_size": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        cfg = self.config
        if cfg.executor == "process":
            pool = WorkerPool(cfg.workers)
            await pool.start()  # forks and pings every worker
            self._executor = pool
        else:
            self._executor = ThreadPoolExecutor(max_workers=cfg.workers)
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port, limit=cfg.max_line_bytes
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    def stats(self) -> dict:
        """Always-on counters (a copy), plus live queue/inflight depth."""
        out = dict(self._stats)
        out["queue_depth"] = len(self._queue)
        out["inflight_batches"] = self._inflight
        out.update(self._stream.stats)
        out["stream_lag"] = self._stream.lag
        return out

    async def stop(self, *, drain: bool | None = None) -> None:
        """Stop accepting, drain within ``drain_timeout_s``, shut down.

        ``drain=False`` skips the wait and force-terminates immediately.
        Idempotent.
        """
        cfg = self.config
        if drain is None:
            drain = True
        self._draining = True
        await self._stream.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = True
        if drain and cfg.drain_timeout_s > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + cfg.drain_timeout_s
            while (self._queue or self._inflight) and loop.time() < deadline:
                self._arrival.set()  # keep the dispatcher moving
                await asyncio.sleep(0.005)
            drained = not self._queue and not self._inflight
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while self._queue:  # anything left after the drain window
            pending = self._queue.popleft()
            self._resolve_error(
                pending, ERR_SHUTTING_DOWN, "server shutting down"
            )
        for task in list(self._batch_tasks):  # in flight past the window
            task.cancel()
        await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        if isinstance(self._executor, WorkerPool):
            self._executor.close()
        elif self._executor is not None:
            self._executor.shutdown(wait=drained, cancel_futures=True)
        self._executor = None
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass

    async def __aenter__(self) -> "InterferenceServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connection handling ------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        owned: list[_Pending] = []
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # frame longer than the stream limit
                    await self._write(
                        writer, wlock,
                        error_response(None, ERR_BAD_REQUEST, "frame too long"),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                admitted_at = loop.time()
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
                    obs.count("serve.error.bad_request")
                    await self._write(
                        writer, wlock,
                        error_response(req_id, ERR_BAD_REQUEST, str(exc)),
                    )
                    continue
                if kind == "ping":
                    self._stats["pings"] += 1
                    await self._write(
                        writer, wlock,
                        ok_response(req_id, {"pong": True},
                                    ms=(loop.time() - admitted_at) * 1e3),
                    )
                    continue
                if kind.startswith("stream_"):
                    # stateful lane: handled inline on the event loop,
                    # never queued for the (stateless) worker pool
                    response = await self._stream.handle(
                        kind, req_id, params, writer, wlock, t0=admitted_at
                    )
                    await self._write(writer, wlock, response)
                    continue
                rejection = self._shard_rejection(req_id, kind, params)
                if rejection is None:
                    rejection = self._admission_error(req_id)
                if rejection is not None:
                    await self._write(writer, wlock, rejection)
                    continue
                pending = self._enqueue(
                    req_id, kind, params, deadline_ms, admitted_at
                )
                owned.append(pending)
                task = asyncio.create_task(
                    self._respond_when_done(pending, writer, wlock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            # Disconnection cancels this client's queued work: the
            # dispatcher skips abandoned requests instead of computing
            # results nobody will read.
            self._stream.drop_connection(writer)
            for pending in owned:
                pending.abandoned = True
            for task in tasks:
                task.cancel()
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def set_shard_info(self, info: dict | None) -> None:
        """Adopt a cluster identity: requests whose ``shard`` spec names a
        different index are refused with ``wrong_shard`` (plus the owner's
        endpoint when known) instead of computing the wrong partial."""
        if info is not None and not isinstance(info.get("index"), int):
            raise ValueError("shard info must carry an int 'index'")
        self.shard_info = info

    def _shard_rejection(self, req_id, kind: str, params: dict) -> dict | None:
        info = self.shard_info
        if info is None or kind != "interference":
            return None
        spec = params.get("shard")
        if not isinstance(spec, dict):
            return None
        want = spec.get("index")
        if (
            isinstance(want, bool)
            or not isinstance(want, int)
            or want == info["index"]
        ):
            return None  # malformed indices get the handler's bad_request
        self._stats["rejected_wrong_shard"] += 1
        obs.count("serve.rejected.wrong_shard")
        endpoints = info.get("endpoints") or []
        details: dict = {"shards": [want]}
        if 0 <= want < len(endpoints):
            details["endpoints"] = [list(endpoints[want])]
        return error_response(
            req_id, ERR_WRONG_SHARD,
            f"shard {want} requested; this worker serves shard "
            f"{info['index']}",
            details=details,
        )

    def _admission_error(self, req_id) -> dict | None:
        if self._draining:
            self._stats["rejected_shutting_down"] += 1
            obs.count("serve.rejected.shutting_down")
            return error_response(
                req_id, ERR_SHUTTING_DOWN, "server shutting down"
            )
        if len(self._queue) >= self.config.queue_limit:
            self._stats["rejected_overloaded"] += 1
            obs.count("serve.rejected.overloaded")
            return error_response(
                req_id, ERR_OVERLOADED,
                f"admission queue full ({self.config.queue_limit} waiting); "
                "retry with backoff",
            )
        return None

    def _enqueue(self, req_id, kind, params, deadline_ms, admitted_at) -> _Pending:
        cfg = self.config
        if deadline_ms is None:
            deadline_ms = cfg.default_deadline_ms
        deadline_at = (
            None if deadline_ms is None else admitted_at + deadline_ms / 1e3
        )
        pending = _Pending(
            req_id, kind, params,
            self.router.route(kind, params),
            admitted_at, deadline_at,
        )
        self._queue.append(pending)
        self._stats["accepted"] += 1
        obs.count("serve.accepted")
        obs.gauge("serve.queue_depth", len(self._queue))
        self._arrival.set()
        return pending

    async def _respond_when_done(self, pending, writer, wlock) -> None:
        response = await pending.future
        if not pending.abandoned:
            await self._write(writer, wlock, response)

    async def _write(self, writer, wlock, response: dict) -> None:
        try:
            async with wlock:
                writer.write(
                    encode_message(response, limit=self.config.max_line_bytes)
                )
                # drain() per response would cost a scheduling round trip
                # each; the transport buffers writes, so only apply
                # backpressure once the buffer actually backs up.
                if writer.transport.get_write_buffer_size() > 64 * 1024:
                    await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it

    # -- request resolution -------------------------------------------------

    def _latency_ms(self, pending) -> float:
        return (asyncio.get_running_loop().time() - pending.enqueued_at) * 1e3

    def _resolve_ok(self, pending, result: dict) -> None:
        if pending.future.done():
            return
        ms = self._latency_ms(pending)
        self._stats["completed"] += 1
        obs.count("serve.completed")
        obs.record_span(
            "serve.request", ms / 1e3, kind=pending.kind, status="ok"
        )
        pending.future.set_result(ok_response(pending.req_id, result, ms=ms))

    def _resolve_error(self, pending, code: str, message: str) -> None:
        if pending.future.done():
            return
        ms = self._latency_ms(pending)
        if code == ERR_DEADLINE:
            self._stats["deadline_exceeded"] += 1
            obs.count("serve.deadline_exceeded")
        elif code == ERR_BAD_REQUEST:
            self._stats["bad_request"] += 1
            obs.count("serve.error.bad_request")
        elif code == ERR_INTERNAL:
            self._stats["internal_errors"] += 1
            obs.count("serve.error.internal")
        obs.record_span(
            "serve.request", ms / 1e3, kind=pending.kind, status=code
        )
        pending.future.set_result(
            error_response(pending.req_id, code, message, ms=ms)
        )

    # -- dispatcher ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            if not self._queue:
                self._arrival.clear()
                await self._arrival.wait()
                continue
            # Take the executor slot FIRST, then assemble the batch:
            # while all slots are busy the queue keeps filling, so the
            # moment one frees we dispatch the whole accumulated backlog
            # as one batch instead of many small early-collected ones.
            await self._sem.acquire()
            head = self._pop_viable()
            if head is None:
                self._sem.release()
                continue
            batch = [head]
            if head.lane.batchable:
                self._take_lane(head.lane, batch, cfg.batch_max_size)
            self._inflight += 1
            obs.gauge("serve.inflight_batches", self._inflight)
            task = asyncio.create_task(self._execute_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    def _pop_viable(self) -> _Pending | None:
        """Pop the oldest queued request that still deserves execution,
        resolving abandoned/expired ones along the way."""
        loop = asyncio.get_running_loop()
        while self._queue:
            pending = self._queue.popleft()
            obs.gauge("serve.queue_depth", len(self._queue))
            if pending.abandoned:
                continue
            if (
                pending.deadline_at is not None
                and loop.time() >= pending.deadline_at
                and pending.kind != "opt"
            ):
                self._resolve_error(
                    pending, ERR_DEADLINE,
                    "deadline expired before dispatch",
                )
                continue
            return pending
        return None

    def _take_lane(self, lane, batch: list, limit: int) -> None:
        """Move queued same-lane requests into ``batch`` (up to ``limit``)."""
        if len(batch) >= limit:
            return
        keep: list[_Pending] = []
        while self._queue and len(batch) < limit:
            pending = self._queue.popleft()
            if pending.lane == lane and not pending.abandoned:
                batch.append(pending)
            else:
                keep.append(pending)
        for pending in reversed(keep):
            self._queue.appendleft(pending)
        obs.gauge("serve.queue_depth", len(self._queue))

    def _prepare_params(self, pending) -> dict:
        """Apply server-side budget policy (currently: ``opt`` clamps)."""
        if pending.kind != "opt":
            return pending.params
        cfg = self.config
        loop = asyncio.get_running_loop()
        params = dict(pending.params)
        budget = params.get("time_budget_s")
        if budget is None or budget > cfg.opt_time_budget_cap_s:
            budget = cfg.opt_time_budget_cap_s
        if pending.deadline_at is not None:
            remaining = pending.deadline_at - loop.time()
            budget = min(budget, max(remaining, _OPT_MIN_BUDGET_S))
        params["time_budget_s"] = budget
        node_budget = params.get("node_budget")
        if node_budget is None or node_budget > cfg.opt_node_budget_cap:
            params["node_budget"] = cfg.opt_node_budget_cap
        return params

    async def _execute_batch(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        kind = batch[0].kind
        try:
            payloads = [self._prepare_params(p) for p in batch]
            t0 = loop.time()
            for pending in batch:
                obs.record_span(
                    "serve.queue_wait", t0 - pending.enqueued_at,
                    kind=kind,
                )
            executor = self._executor
            try:
                if isinstance(executor, WorkerPool):
                    items, handler_s = await executor.run(kind, payloads)
                else:  # a thread shares this clock: no handler/ipc split
                    handler_s = None
                    items = await loop.run_in_executor(
                        executor, run_batch, kind, payloads
                    )
            except asyncio.CancelledError:  # stop() after the drain window
                for pending in batch:
                    self._resolve_error(
                        pending, ERR_SHUTTING_DOWN, "server shutting down"
                    )
                raise
            except Exception as exc:  # worker death, pickling failure, ...
                for pending in batch:
                    self._resolve_error(
                        pending, ERR_INTERNAL, f"dispatch failed: {exc!r}"
                    )
                if isinstance(exc, WorkerLost):
                    # the pool already forked a replacement: one worker
                    # death costs one batch, not the server
                    self._stats["pool_respawns"] += 1
                    obs.count("serve.pool.respawns")
                return
            wall = loop.time() - t0
            if handler_s is not None:
                obs.record_span("serve.worker", handler_s, kind=kind)
                obs.record_span(
                    "serve.ipc", max(wall - handler_s, 0.0), kind=kind
                )
            self._stats["batches"] += 1
            self._stats["batched_requests"] += len(batch)
            self._stats["max_batch_size"] = max(
                self._stats["max_batch_size"], len(batch)
            )
            obs.count("serve.batches")
            obs.count("serve.batch.requests", len(batch))
            obs.record_span("serve.batch", wall, kind=kind, size=len(batch))
            now = loop.time()
            for pending, item in zip(batch, items):
                if (
                    pending.kind != "opt"
                    and pending.deadline_at is not None
                    and now >= pending.deadline_at
                ):
                    self._resolve_error(
                        pending, ERR_DEADLINE, "completed after deadline"
                    )
                elif item["ok"]:
                    self._resolve_ok(pending, item["result"])
                else:
                    message = item["error"]
                    code = (
                        ERR_BAD_REQUEST
                        if message.startswith(_CALLER_ERRORS)
                        else ERR_INTERNAL
                    )
                    self._resolve_error(pending, code, message)
        finally:
            self._inflight -= 1
            obs.gauge("serve.inflight_batches", self._inflight)
            self._sem.release()
