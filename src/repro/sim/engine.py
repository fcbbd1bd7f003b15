"""Generic discrete-event simulation core.

A tiny but complete event-queue engine: events are ``(time, seq, callback)``
triples ordered by time with FIFO tie-breaking (the monotone sequence
number also keeps heap comparisons away from unorderable callbacks).
It drives :mod:`repro.sim.csma`, whose continuous, unslotted time the
slotted :mod:`repro.mac` engines do not model.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable

from repro import obs


class EventQueue:
    """Priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], None]) -> None:
        if not math.isfinite(time):
            raise ValueError("event time must be finite")
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def pop(self) -> tuple[float, Callable[[], None]]:
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        time, _, cb = heapq.heappop(self._heap)
        return time, cb

    def peek_time(self) -> float:
        return self._heap[0][0] if self._heap else math.inf


class Simulator:
    """Event loop with a monotone clock.

    Subclasses (or composing code) call :meth:`schedule` with absolute or
    relative times and :meth:`run` to drain events up to a horizon.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events = EventQueue()
        self._processed = 0

    @property
    def n_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` after the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.events.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= current time)."""
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        self.events.push(time, callback)

    def run(self, until: float = math.inf, *, max_events: int | None = None) -> None:
        """Process events in time order until the horizon or queue drain.

        Events scheduled exactly at ``until`` are still processed; the clock
        never exceeds ``until``.
        """
        with obs.span("sim.run", until=until if math.isfinite(until) else None) as sp:
            processed_before = self._processed
            while len(self.events):
                if self.events.peek_time() > until:
                    break
                if max_events is not None and self._processed >= max_events:
                    break
                time, cb = self.events.pop()
                if time < self.now:
                    raise RuntimeError("event queue went backwards in time")
                self.now = time
                self._processed += 1
                cb()
            if math.isfinite(until) and until > self.now:
                self.now = until
            drained = self._processed - processed_before
            obs.count("sim.events", drained)
            sp.set(events=drained, now=self.now)
