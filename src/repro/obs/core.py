"""Span tracer, counters and gauges — the process-wide observability state.

Design constraints (see ``docs/API.md``):

- **Zero cost when off.** The registry is *disabled* by default and every
  entry point (:func:`span`, :func:`count`, :func:`gauge`) starts with a
  single attribute check. A disabled :func:`span` returns one shared no-op
  context manager; a disabled :func:`count` is a check-and-return. The
  instrumented hot paths therefore regress by well under 5% — asserted by
  ``benchmarks/bench_obs_overhead.py``.
- **Zero dependencies.** Pure stdlib: ``time.perf_counter`` for monotonic
  timings, plain dicts for counters/gauges, a list stack for span nesting.
- **Single registry.** One process-wide :class:`Observability` instance
  (:data:`OBS`) so instrumentation sites never thread a handle through
  call chains; workers in a process pool each get their own fresh copy
  (module state is per-interpreter), which is the semantics the sweep
  runner wants — parent-side spans describe parent-side work.

Counter names are dotted paths (``interference.method.batch``,
``protocol.messages``, ``runner.cache.hit``); span names follow the same
convention. Both are free-form — the registry does not enforce a schema —
but the instrumented layers stick to the families documented in
``docs/API.md`` so dashboards and tests can rely on them.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


class Span:
    """One timed, attributed, possibly-nested region of work.

    Spans are created through :func:`span` (live timing) or
    :func:`record_span` (pre-measured work, e.g. a task executed in a
    worker process). ``start_s``/``end_s`` are ``time.perf_counter``
    readings — monotonic, comparable only within one process run.
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "children", "_registry")

    def __init__(self, name: str, attrs: dict, registry: "Observability"):
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s = 0.0
        self.children: list[Span] = []
        self._registry = registry

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def set(self, **attrs) -> None:
        """Attach/override attributes after the span has started."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._registry._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._registry._pop(self)
        return False

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first ``(span, depth)`` traversal of this subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"{len(self.children)} child(ren))"
        )


class _NullSpan:
    """Shared no-op stand-in returned by :func:`span` while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class ObsSnapshot:
    """Immutable-ish view of the registry at one instant (JSON-exportable)."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def iter_spans(self) -> Iterator[tuple[Span, int]]:
        for root in self.spans:
            yield from root.walk()

    @property
    def n_spans(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def max_depth(self) -> int:
        """Number of nesting levels (1 = flat; 0 = no spans at all)."""
        return max((d + 1 for _, d in self.iter_spans()), default=0)

    def to_jsonable(self) -> dict:
        from repro.obs.report import spans_to_jsonable

        return {
            "spans": spans_to_jsonable(self.spans),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, allow_nan=False)


class Observability:
    """Process-wide tracer + counter/gauge registry.

    Not thread-safe by design: the reproduction's hot paths are
    single-threaded per process (parallelism happens across *processes*
    in the sweep runner), and keeping the enabled path lock-free is what
    makes the disabled path one attribute check.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span plumbing (called by Span.__enter__/__exit__) -----------------
    def _push(self, s: Span) -> None:
        self._stack.append(s)

    def _pop(self, s: Span) -> None:
        # tolerate enable()/reset() mid-span: the span simply isn't recorded
        if self._stack and self._stack[-1] is s:
            self._stack.pop()
            self._attach(s)

    def _attach(self, s: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(s)
        else:
            self.roots.append(s)

    # -- control -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans, counters and gauges (keeps enablement)."""
        self.counters.clear()
        self.gauges.clear()
        self.roots.clear()
        self._stack.clear()

    def snapshot(self) -> ObsSnapshot:
        """Copy out the current state (span trees are shared, not deep-copied)."""
        return ObsSnapshot(
            spans=list(self.roots),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
        )


#: The process-wide registry used by all instrumentation sites.
OBS = Observability()


def enabled() -> bool:
    """Is the global registry currently recording?"""
    return OBS.enabled


def enable() -> None:
    """Turn the global registry on (idempotent)."""
    OBS.enable()


def disable() -> None:
    """Turn the global registry off (idempotent; recorded data is kept)."""
    OBS.disable()


def reset() -> None:
    """Clear all recorded spans/counters/gauges on the global registry."""
    OBS.reset()


def snapshot() -> ObsSnapshot:
    """Snapshot the global registry (spans + counters + gauges)."""
    return OBS.snapshot()


def span(name: str, **attrs):
    """Context manager timing a named region; nests under any open span.

    Disabled fast path: returns a shared no-op object (one attribute
    check, no allocation beyond the caller's ``attrs`` dict).
    """
    if not OBS.enabled:
        return _NULL_SPAN
    return Span(name, attrs, OBS)


def record_span(name: str, duration_s: float, **attrs) -> None:
    """Record an already-measured region as a completed span.

    Used where the work was timed elsewhere — e.g. a sweep task executed
    in a worker process whose wall time comes back over the pipe. The
    span is attached at the current nesting position with a synthetic
    ``[now - duration, now]`` window, so tree renders and JSONL exports
    treat it uniformly.
    """
    if not OBS.enabled:
        return
    s = Span(name, attrs, OBS)
    s.end_s = time.perf_counter()
    s.start_s = s.end_s - duration_s
    OBS._attach(s)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (created at 0 on first use)."""
    if OBS.enabled:
        counters = OBS.counters
        counters[name] = counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last-write-wins)."""
    if OBS.enabled:
        OBS.gauges[name] = value


def counters() -> dict[str, int]:
    """Copy of the global counter map."""
    return dict(OBS.counters)


def gauges() -> dict[str, float]:
    """Copy of the global gauge map."""
    return dict(OBS.gauges)


@contextmanager
def capture(*, reset_first: bool = True):
    """Enable the registry for a block, restoring the previous state after.

    ::

        with obs.capture() as registry:
            run_workload()
        print(registry.snapshot().counters)

    ``reset_first=False`` accumulates into whatever is already recorded.
    """
    previous = OBS.enabled
    if reset_first:
        OBS.reset()
    OBS.enable()
    try:
        yield OBS
    finally:
        OBS.enabled = previous
