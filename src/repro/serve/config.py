"""Serving options — one frozen keyword-only dataclass, like ``OptConfig``.

Every option is named, a misspelled keyword raises ``TypeError`` at
construction, and instances are frozen so one config can parameterize a
server, appear in logs and be asserted on in tests without defensive
copying. See ``docs/SERVING.md`` for how the knobs interact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.protocol import MAX_LINE_BYTES


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Options accepted by :class:`repro.serve.InterferenceServer`.

    Parameters
    ----------
    host, port:
        Bind address. ``port=0`` picks an ephemeral port (read it back
        from ``server.port`` after ``start()``).
    workers:
        Worker processes (or threads) executing request payloads.
    executor:
        ``"process"`` (default; true parallelism, the production mode) or
        ``"thread"`` (cheap startup; used by tests and tiny deployments —
        NumPy kernels release the GIL for part of the work, but CPU-bound
        load should use processes).
    batch_max_size:
        Micro-batch cap for batchable request types. Dispatch is
        work-conserving: as soon as an executor slot is free, up to
        ``batch_max_size`` queued compatible requests go out together, so
        batches form only from the backlog that built up while every slot
        was busy. ``batch_max_size=1`` disables coalescing — the
        per-request-dispatch regime ``benchmarks/bench_serve.py`` compares
        against.
    queue_limit:
        Admission bound: requests beyond this many queued (not yet
        dispatched) are rejected immediately with ``overloaded`` instead
        of growing an unbounded backlog (load shedding, not collapse).
    max_inflight_batches:
        Concurrent executor dispatches. ``None`` defaults to ``workers``
        so the pool stays busy while admission control still sees the
        queue (hidden executor backlogs would defeat it).
    default_deadline_ms:
        Deadline applied to requests that do not carry their own.
        ``None`` means no implicit deadline.
    opt_time_budget_cap_s, opt_node_budget_cap:
        Server-side caps on ``opt`` request budgets: a client deadline is
        translated into ``OptConfig.time_budget_s`` (so an over-deadline
        solve returns its certified bracket instead of an error), and
        both budgets are clamped to these caps so one request cannot
        monopolize a worker.
    drain_timeout_s:
        Graceful-shutdown budget: ``stop()`` waits this long for queued
        and in-flight work to finish before force-terminating the pool.
    max_line_bytes:
        Per-frame size limit (both directions).
    stream_max_capacity:
        Largest node universe a ``stream_init`` may allocate.
    stream_max_apply:
        Most events one ``stream_apply`` request may carry.
    stream_max_subscriptions:
        Concurrent region subscriptions across all connections.
    stream_read_wait_s:
        How long a bounded-staleness ``stream_read`` may wait for the
        ingest lag to drop to its ``max_lag`` before answering
        ``deadline_exceeded``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    executor: str = "process"
    batch_max_size: int = 32
    queue_limit: int = 256
    max_inflight_batches: int | None = None
    default_deadline_ms: float | None = None
    opt_time_budget_cap_s: float = 5.0
    opt_node_budget_cap: int = 200_000
    drain_timeout_s: float = 5.0
    max_line_bytes: int = MAX_LINE_BYTES
    stream_max_capacity: int = 1_000_000
    stream_max_apply: int = 10_000
    stream_max_subscriptions: int = 64
    stream_read_wait_s: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")
        if self.batch_max_size < 1:
            raise ValueError("batch_max_size must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_inflight_batches is not None and self.max_inflight_batches < 1:
            raise ValueError("max_inflight_batches must be >= 1 (or None)")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive (or None)")
        if self.opt_time_budget_cap_s <= 0:
            raise ValueError("opt_time_budget_cap_s must be positive")
        if self.opt_node_budget_cap < 1:
            raise ValueError("opt_node_budget_cap must be >= 1")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if self.stream_max_capacity < 1:
            raise ValueError("stream_max_capacity must be >= 1")
        if self.stream_max_apply < 1:
            raise ValueError("stream_max_apply must be >= 1")
        if self.stream_max_subscriptions < 1:
            raise ValueError("stream_max_subscriptions must be >= 1")
        if self.stream_read_wait_s <= 0:
            raise ValueError("stream_read_wait_s must be positive")

    @property
    def inflight_limit(self) -> int:
        return (
            self.workers
            if self.max_inflight_batches is None
            else self.max_inflight_batches
        )
