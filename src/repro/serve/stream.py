"""The ``stream`` lane: stateful event ingest inside the serve loop.

Unlike the pool-dispatched request kinds (pure functions of their
params), the stream lane owns mutable state — one
:class:`~repro.stream.engine.StreamEngine` (optionally durable) — so it
runs *inline on the event loop*, never on the worker pool. Request kinds:

- ``stream_init``   — create the engine (in-memory, or durable when a
  ``dir`` is given: recovered via snapshot + tail replay if it exists);
- ``stream_apply``  — submit a batch of events. Events are *accepted*
  synchronously (ordering fixed) and *applied* asynchronously by the
  ingest task; ``ack`` selects what the response waits for:
  ``"accepted"`` (default, fire-and-forget ordering guarantee),
  ``"applied"`` (events are live for reads), or ``"durable"`` (the
  segmented log flushed — durable engines only; ``stream_init`` accepts
  ``segment_bytes`` / ``compact`` passthrough to
  :class:`~repro.stream.config.StreamConfig`).
- ``stream_read``   — bounded-staleness read. ``max_lag`` is the maximum
  number of accepted-but-unapplied events the caller tolerates; the read
  waits (up to ``ServeConfig.stream_read_wait_s``) until the lag is at
  most that, then answers from the engine. ``max_lag=0`` is
  read-your-writes with respect to everything accepted so far.
- ``stream_subscribe`` / ``stream_unsubscribe`` — per-region delta push:
  after each applied event the subscriber's connection receives a
  ``{"push": "stream_delta", "sub": ..., "seq": ..., ...}`` frame (no
  ``"id"`` key, so pipelined response matching is unaffected) carrying
  the ``(node, count)`` changes inside its rectangle.

The accepted/applied split is what makes the staleness contract honest:
acceptance is the cheap, ordered admission step; application is where
per-event interference deltas happen, amortized by the ingest task.
"""

from __future__ import annotations

import asyncio
import math
from itertools import count

from repro import obs
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    error_response,
    ok_response,
)
from repro.stream.config import StreamConfig
from repro.stream.durable import DurableStreamEngine
from repro.stream.engine import StreamEngine, StreamStateError
from repro.stream.events import StreamEvent

__all__ = ["StreamService"]

#: Yield to the event loop after this many inline event applications, so
#: one big stream_apply cannot starve other connections.
_APPLY_YIELD_EVERY = 1000


def _parse_region(region) -> tuple[float, float, float, float]:
    """``[xmin, ymin, xmax, ymax]`` as four finite floats with
    ``xmin <= xmax`` and ``ymin <= ymax``; ``ValueError`` otherwise."""
    if not isinstance(region, (list, tuple)) or len(region) != 4:
        raise ValueError("'region' must be [xmin, ymin, xmax, ymax]")
    xmin, ymin, xmax, ymax = bounds = tuple(float(c) for c in region)
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"region bounds must be finite, got {list(bounds)}")
    if not (xmin <= xmax and ymin <= ymax):
        raise ValueError("region must satisfy xmin <= xmax and ymin <= ymax")
    return bounds


class _Sub:
    __slots__ = ("sub_id", "region", "writer", "wlock")

    def __init__(self, sub_id, region, writer, wlock):
        self.sub_id = sub_id
        self.region = region
        self.writer = writer
        self.wlock = wlock


class StreamService:
    """Stream-lane state + request handling for one server instance."""

    def __init__(self, serve_config, write_fn):
        self.config = serve_config
        # the server's connection-safe frame writer: (writer, wlock, dict)
        self._write = write_fn
        self._durable: DurableStreamEngine | None = None
        self._engine: StreamEngine | None = None
        self._queue: asyncio.Queue | None = None
        self._ingest_task: asyncio.Task | None = None
        self._cond: asyncio.Condition | None = None
        self.accepted = 0  # events accepted (ordered) so far
        self.processed = 0  # events the ingest task has consumed
        self._subs: dict[int, _Sub] = {}
        self._sub_ids = count(1)
        self.stats = {
            "stream_accepted": 0,
            "stream_applied": 0,
            "stream_rejected_events": 0,
            "stream_reads": 0,
            "stream_read_timeouts": 0,
            "stream_pushes": 0,
            "stream_subscriptions": 0,
        }

    @property
    def lag(self) -> int:
        return self.accepted - self.processed

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        if self._ingest_task is not None:
            self._ingest_task.cancel()
            try:
                await self._ingest_task
            except asyncio.CancelledError:
                pass
            self._ingest_task = None
        if self._durable is not None:
            self._durable.close()
            self._durable = None
        self._subs.clear()

    def drop_connection(self, writer) -> None:
        """Forget subscriptions owned by a closed connection."""
        for sub_id in [s for s, sub in self._subs.items() if sub.writer is writer]:
            del self._subs[sub_id]

    # -- request entry point -----------------------------------------------

    async def handle(
        self, kind: str, req_id, params: dict, writer, wlock, *, t0: float
    ) -> dict:
        """Handle one stream_* request; returns the response envelope."""
        loop = asyncio.get_running_loop()

        def ok(result):
            return ok_response(req_id, result, ms=(loop.time() - t0) * 1e3)

        def err(code, message):
            return error_response(
                req_id, code, message, ms=(loop.time() - t0) * 1e3
            )

        try:
            if kind == "stream_init":
                return ok(await self._init(params))
            if self._engine is None:
                return err(
                    ERR_BAD_REQUEST, "stream lane not initialized (stream_init)"
                )
            if kind == "stream_apply":
                return ok(await self._apply(params))
            if kind == "stream_read":
                result = await self._read(params)
                if result is None:
                    self.stats["stream_read_timeouts"] += 1
                    return err(
                        ERR_DEADLINE,
                        f"lag {self.lag} did not reach max_lag within "
                        f"{self.config.stream_read_wait_s}s",
                    )
                return ok(result)
            if kind == "stream_subscribe":
                return ok(self._subscribe(params, writer, wlock))
            if kind == "stream_unsubscribe":
                return ok(self._unsubscribe(params))
            return err(ERR_BAD_REQUEST, f"unknown stream kind {kind!r}")
        except (ValueError, KeyError, TypeError, StreamStateError) as exc:
            return err(ERR_BAD_REQUEST, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive
            return err(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")

    # -- handlers ----------------------------------------------------------

    async def _init(self, params: dict) -> dict:
        if self._engine is not None and not params.get("reset"):
            raise ValueError("stream lane already initialized (pass reset)")
        capacity = int(params["capacity"])
        if capacity > self.config.stream_max_capacity:
            raise ValueError(
                f"capacity {capacity} exceeds server cap "
                f"{self.config.stream_max_capacity}"
            )
        extra = {}
        if "segment_bytes" in params:
            extra["segment_bytes"] = int(params["segment_bytes"])
        if "compact" in params:
            extra["compact"] = str(params["compact"])
        stream_config = StreamConfig(
            capacity=capacity,
            r_max=float(params["r_max"]),
            snapshot_every=int(params.get("snapshot_every", 10_000)),
            fsync_every=int(params.get("fsync_every", 256)),
            fsync=bool(params.get("fsync", True)),
            **extra,
        )
        await self.close()  # tear down any previous engine + task
        recovery = None
        directory = params.get("dir")
        if directory:
            from pathlib import Path

            if (Path(directory) / "meta.json").exists():
                self._durable = DurableStreamEngine.open(directory)
                recovery = self._durable.recovery.to_jsonable()
            else:
                self._durable = DurableStreamEngine.create(
                    directory, stream_config
                )
            self._engine = self._durable.engine
        else:
            self._engine = StreamEngine(stream_config)
        self.accepted = self.processed = self._engine.seq
        self._queue = asyncio.Queue()
        self._cond = asyncio.Condition()
        self._ingest_task = asyncio.create_task(
            self._ingest_loop(), name="serve-stream-ingest"
        )
        obs.count("stream.serve.init")
        return {
            "seq": self._engine.seq,
            "n_active": self._engine.n_active,
            "durable": self._durable is not None,
            "recovery": recovery,
        }

    async def _apply(self, params: dict) -> dict:
        raw = params.get("events")
        if not isinstance(raw, list) or not raw:
            raise ValueError("stream_apply needs a non-empty 'events' list")
        if len(raw) > self.config.stream_max_apply:
            raise ValueError(
                f"{len(raw)} events exceed the per-request cap "
                f"{self.config.stream_max_apply}"
            )
        ack = params.get("ack", "accepted")
        if ack not in ("accepted", "applied", "durable"):
            raise ValueError("ack must be 'accepted', 'applied' or 'durable'")
        if ack == "durable" and self._durable is None:
            raise ValueError("ack='durable' needs a durable stream (init with dir)")
        events = [StreamEvent.from_jsonable(e) for e in raw]
        self.accepted += len(events)
        self.stats["stream_accepted"] += len(events)
        obs.count("stream.serve.accepted", len(events))
        token = self.accepted
        future: asyncio.Future | None = None
        if ack != "accepted":
            future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((events, ack, future))
        if future is None:
            return {"accepted_to": token, "lag": self.lag}
        applied_seq, rejected = await future
        return {
            "accepted_to": token,
            "applied_seq": applied_seq,
            "rejected": rejected,
            "lag": self.lag,
        }

    async def _read(self, params: dict) -> dict | None:
        max_lag = params.get("max_lag", 0)
        if not isinstance(max_lag, int) or isinstance(max_lag, bool) or max_lag < 0:
            raise ValueError("max_lag must be a non-negative integer")
        node = params.get("node")
        region = params.get("region")
        if node is None and region is not None:
            region = _parse_region(region)
        if self.lag > max_lag:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.config.stream_read_wait_s
            async with self._cond:
                while self.lag > max_lag:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        return None
                    try:
                        await asyncio.wait_for(self._cond.wait(), remaining)
                    except asyncio.TimeoutError:
                        return None
        engine = self._engine
        self.stats["stream_reads"] += 1
        obs.count("stream.serve.reads")
        out: dict = {"seq": engine.seq, "lag": self.lag}
        if node is not None:
            out["node"] = int(node)
            out["value"] = engine.interference_of(int(node))
        elif region is not None:
            out["nodes"] = [[v, c] for v, c in engine.region_read(*region)]
        else:
            out["n_active"] = engine.n_active
            out["max_interference"] = engine.max_interference()
        return out

    def _subscribe(self, params: dict, writer, wlock) -> dict:
        region = _parse_region(params.get("region"))
        if len(self._subs) >= self.config.stream_max_subscriptions:
            raise ValueError(
                f"subscription cap {self.config.stream_max_subscriptions} reached"
            )
        sub_id = next(self._sub_ids)
        self._subs[sub_id] = _Sub(sub_id, region, writer, wlock)
        self.stats["stream_subscriptions"] += 1
        obs.count("stream.serve.subscriptions")
        # the starting snapshot: counts in-region as of the current seq,
        # so the subscriber can maintain exact state from deltas alone
        return {
            "sub": sub_id,
            "seq": self._engine.seq,
            "nodes": [[v, c] for v, c in self._engine.region_read(*region)],
        }

    def _unsubscribe(self, params: dict) -> dict:
        sub_id = params.get("sub")
        removed = self._subs.pop(sub_id, None) is not None
        return {"sub": sub_id, "removed": removed}

    # -- ingest ------------------------------------------------------------

    async def _ingest_loop(self) -> None:
        applier = self._durable if self._durable is not None else self._engine
        since_yield = 0
        while True:
            events, ack, future = await self._queue.get()
            rejected = 0
            for ev in events:
                collect = bool(self._subs)
                # capture the position a leave/move vacates, so region
                # subscribers hear about nodes that left their rectangle
                old_pos = None
                if (
                    collect
                    and ev.kind in ("leave", "move")
                    and 0 <= ev.node < self._engine.config.capacity
                    and self._engine.active[ev.node]
                ):
                    old_pos = (self._engine.xs[ev.node], self._engine.ys[ev.node])
                try:
                    applied = applier.apply(ev, collect=collect)
                except StreamStateError:
                    rejected += 1
                    self.stats["stream_rejected_events"] += 1
                    obs.count("stream.serve.rejected_events")
                    continue
                self.stats["stream_applied"] += 1
                if collect:
                    await self._push_deltas(applied, old_pos)
                since_yield += 1
                if since_yield >= _APPLY_YIELD_EVERY:
                    since_yield = 0
                    await asyncio.sleep(0)
            self.processed += len(events)
            obs.count("stream.serve.applied", len(events) - rejected)
            if ack == "durable":
                self._durable.flush()
            async with self._cond:
                self._cond.notify_all()
            if future is not None and not future.done():
                future.set_result((self._engine.seq, rejected))

    async def _push_deltas(self, applied, old_pos) -> None:
        engine = self._engine
        ev = applied.event
        xs, ys, act = engine.xs, engine.ys, engine.active
        for sub in list(self._subs.values()):
            xmin, ymin, xmax, ymax = sub.region
            changed = [
                [v, c]
                for v, c in applied.changed
                if act[v] and xmin <= xs[v] <= xmax and ymin <= ys[v] <= ymax
            ]
            left = (
                [ev.node]
                if old_pos is not None
                and xmin <= old_pos[0] <= xmax
                and ymin <= old_pos[1] <= ymax
                and (
                    ev.kind == "leave"
                    or not (xmin <= xs[ev.node] <= xmax and ymin <= ys[ev.node] <= ymax)
                )
                else []
            )
            if not changed and not left:
                continue
            frame = {
                "push": "stream_delta",
                "sub": sub.sub_id,
                "seq": applied.seq,
                "kind": ev.kind,
                "node": ev.node,
                "changed": changed,
            }
            if left:
                frame["left"] = left
            self.stats["stream_pushes"] += 1
            obs.count("stream.serve.pushes")
            await self._write(sub.writer, sub.wlock, frame)
