"""Forked serve workers on direct socket channels.

``ServeConfig(executor="process")`` runs request batches in a small pool
of forked worker processes. Each worker owns one end of a
:func:`socket.socketpair` and runs a blocking loop: read one
length-prefixed pickle frame ``(kind, payloads)``, call
:func:`repro.serve.handlers.run_batch`, write back ``(items,
handler_wall_s)``. The server holds the other end as an asyncio stream
pair, so a reply wakes its event loop directly: no executor management
thread, call-queue feeder thread or cross-thread wake-up sits between a
dispatch and its worker, and the server process runs no executor thread.
Frames carry their length, so a payload of any size crosses intact (the
wire protocol's line cap does not apply on the channel).

One worker runs one batch at a time. A channel that fails mid-batch (EOF,
a short read, a reset) fails only the batch on it: the pool reaps that
process, forks one replacement and raises :class:`WorkerLost`.

Processes come from the default :mod:`multiprocessing` context (fork on
Linux). A forked child inherits every descriptor the server has open: the
server ends of its siblings' channels and of its own, the listening
socket, client connections. So each child first drops every inherited
socket but its own channel and its standard streams. A worker then sees EOF, and exits, as soon as
the server process is gone, even when it died by SIGKILL; and a connection
the server closes is closed, not held open by a worker forked after it
was accepted.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import socket
import stat
import struct
import time
from dataclasses import dataclass

from repro.runner.pool import reap_processes
from repro.serve import handlers

_HEADER = struct.Struct("!Q")


class WorkerLost(ConnectionError):
    """A worker's channel failed mid-batch; the pool replaced the worker."""


def _frame(obj) -> bytes:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket descriptor above 2 but ``keep`` at ``/dev/null``.

    Only the listener, client connections and sibling channels matter
    (a worker must see EOF when the server dies, and hold no client open);
    fds 0-2 stay, so a worker still logs where the server does, even when
    that is a socket such as a journald stream.

    ``dup2`` rather than ``close``: the fork also copied the server's
    socket objects, and one finalized later would close whatever file
    had reused its number.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, os.listdir("/dev/fd")):
            try:
                if (
                    fd > 2
                    and fd not in (keep, null)
                    and stat.S_ISSOCK(os.fstat(fd).st_mode)
                ):
                    os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, now closed
                pass
    finally:
        os.close(null)


def _worker_main(channel: socket.socket) -> None:
    """Child process: run batches from ``channel`` until it reaches EOF."""
    _drop_inherited_sockets(channel.fileno())
    # The server's asyncio signal handlers come along with the fork.
    # Restore the defaults so terminate() kills, and leave Ctrl-C to the
    # server, whose drain closes this channel.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    inbox = channel.makefile("rb")
    while True:
        header = inbox.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return  # the server closed the channel, or is gone
        kind, payloads = pickle.loads(inbox.read(_HEADER.unpack(header)[0]))
        t0 = time.perf_counter()
        try:
            items = handlers.run_batch(kind, payloads)
        except Exception as exc:
            items = exc
        wall = time.perf_counter() - t0
        try:
            reply = _frame((items, wall))
        except Exception as exc:  # an unpicklable result fails its batch
            reply = _frame((RuntimeError(f"unpicklable reply: {exc!r}"), wall))
        channel.sendall(reply)


@dataclass
class _Worker:
    proc: multiprocessing.Process
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class WorkerPool:
    """``size`` forked workers, each behind its own socketpair channel.

    ``await start()`` forks and pings every worker; ``await run(kind,
    payloads)`` runs one batch on an idle worker (waiting for one if all
    are busy) and returns ``(items, handler_wall_s)``; ``close()`` closes
    the channels and reaps every worker process.
    """

    def __init__(self, size: int):
        self.size = size
        self._workers: list[_Worker] = []
        self._idle: asyncio.Queue[_Worker] = asyncio.Queue()
        self._closed = False

    @property
    def pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    async def start(self) -> None:
        # Fill the experiment registry before forking, so every worker
        # (replacements included) inherits it instead of importing it on
        # its first batch.
        import repro.experiments  # noqa: F401

        try:
            for _ in range(self.size):
                worker = await self._spawn()
                await self._exchange(worker, _frame(("ping", [])))
                self._idle.put_nowait(worker)
        except BaseException:
            self.close()
            raise

    async def _spawn(self) -> _Worker:
        server_end, child_end = socket.socketpair()
        proc = multiprocessing.Process(
            target=_worker_main, args=(child_end,), daemon=True,
            name="repro-serve-worker",
        )
        try:
            with child_end:  # after the fork, the worker holds the only copy
                proc.start()
            reader, writer = await asyncio.open_connection(sock=server_end)
        except BaseException:
            server_end.close()
            reap_processes([proc])
            raise
        worker = _Worker(proc, reader, writer)
        self._workers.append(worker)
        return worker

    @staticmethod
    async def _exchange(worker: _Worker, frame: bytes) -> bytes:
        worker.writer.write(frame)
        await worker.writer.drain()
        header = await worker.reader.readexactly(_HEADER.size)
        return await worker.reader.readexactly(_HEADER.unpack(header)[0])

    async def run(self, kind: str, payloads: list) -> tuple[list, float]:
        frame = _frame((kind, payloads))
        worker = await self._idle.get()
        try:
            reply = await self._exchange(worker, frame)
        except (OSError, EOFError) as exc:
            # EOFError covers IncompleteReadError: the worker died mid-batch
            worker.writer.close()
            reap_processes([worker.proc])
            self._workers.remove(worker)
            if not self._closed:
                self._idle.put_nowait(await self._spawn())
            raise WorkerLost(
                f"worker pid {worker.proc.pid} lost: {exc!r}"
            ) from exc
        except BaseException:
            # cancelled mid-exchange: a reply may still be on its way, so
            # this channel's framing is unknown; close() reaps the process
            worker.writer.close()
            raise
        self._idle.put_nowait(worker)
        items, wall = pickle.loads(reply)
        if isinstance(items, BaseException):
            raise items
        return items, wall

    def close(self) -> None:
        """Close every channel, then terminate → join → kill the workers.
        Idempotent."""
        self._closed = True
        for worker in self._workers:
            worker.writer.close()
        reap_processes([w.proc for w in self._workers])
        self._workers.clear()
