"""Forced shutdown for worker processes — shared by the sweep runner and server.

``ProcessPoolExecutor`` has no per-task kill switch: a worker stuck in a
long computation keeps ``shutdown(wait=True)`` (and interpreter exit)
blocked until the task returns. Both owners of worker processes in this
project — :func:`repro.runner.run_sweep` (task timeouts, Ctrl-C) and the
serving layer's worker pool (:mod:`repro.serve.workers`, drain timeout
and worker death) — need a way out that does not leak workers.
:func:`reap_processes` is that path over a list of processes: terminate
them, and join each with a bounded timeout, escalating to ``kill`` for
survivors. :func:`terminate_pool` applies it to a ``ProcessPoolExecutor``
after cancelling everything still queued.

:func:`terminate_pool` reaches into ``ProcessPoolExecutor._processes`` — a
private attribute, but stable across CPython 3.8–3.13 and the only handle
on the workers; the access is defensive so a future rename degrades to a
plain non-blocking ``shutdown`` instead of an AttributeError.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

#: Per-process join budget after terminate(); survivors are kill()ed.
_JOIN_TIMEOUT_S = 5.0


def reap_processes(procs, *, join_timeout_s: float = _JOIN_TIMEOUT_S) -> int:
    """Terminate → join → kill every ``multiprocessing.Process`` in
    ``procs``; returns the number that were still alive to terminate.

    Idempotent: already-exited (or already-reaped) processes are joined
    and skipped.
    """
    terminated = 0
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
                terminated += 1
        except (OSError, ValueError):
            pass
    for proc in procs:
        try:
            proc.join(timeout=join_timeout_s)
            if proc.is_alive():  # ignored SIGTERM: escalate
                proc.kill()
                proc.join(timeout=join_timeout_s)
        except (OSError, ValueError, AssertionError):
            pass
    return terminated


def terminate_pool(
    pool: ProcessPoolExecutor, *, join_timeout_s: float = _JOIN_TIMEOUT_S
) -> int:
    """Forcefully stop ``pool``, killing worker processes; returns the
    number of processes terminated.

    Safe to call on an already-shut-down pool (no-op) and idempotent: a
    second call finds no live processes. After this the pool object is
    dead — submit raises, and a subsequent ``shutdown()`` returns
    immediately.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    # Stop the feed: nothing queued may start, no new work accepted.
    pool.shutdown(wait=False, cancel_futures=True)
    return reap_processes(procs, join_timeout_s=join_timeout_s)
