"""Durable wrapper: segmented WAL + snapshots + bounded tail-replay recovery.

A *stream directory* is the unit of durability::

    <dir>/meta.json                    engine StreamConfig (written at create)
    <dir>/wal-<first_seq>.jsonl        log segments (repro.stream.wal framing)
    <dir>/snapshot-<seq>.json          periodic full-state snapshots
    <dir>/wal.jsonl                    legacy pre-segmentation log (read-only)

Write path: each event is applied to the in-memory engine (which rejects
invalid events before anything is persisted), then appended to the log as
a compact JSON row ``[seq, kind, node, x, y, r]`` (absent fields dropped
from the tail; see :meth:`StreamEvent.wal_payload`). Sequence numbers are
assigned by the engine and are contiguous from 1, so the log *is* the
state: replaying it reproduces the engine bit-identically (the property
:mod:`repro.stream.verify` asserts). The :class:`SegmentedWal` store
rotates to a fresh ``wal-<first_seq>.jsonl`` whenever the active segment
would grow past ``StreamConfig.segment_bytes``.

Recovery is O(data since the last snapshot), not O(stream lifetime): load
the newest snapshot that verifies, scan only the segments holding records
past its seqno (:func:`~repro.stream.wal.scan_store` seeks by filename —
no manifest), truncate a torn tail on the newest segment, and replay the
tail. A snapshot newer than the log can only arise from external
interference (the log is fsynced before every snapshot) — it is
tolerated, with the snapshot taken as authoritative and the condition
flagged in :class:`RecoveryInfo`. A log whose oldest surviving segment
starts *past* ``snapshot.seq + 1`` is a hole no crash can explain
(compaction never deletes the segment containing the next seqno to
replay) and raises :class:`~repro.stream.wal.WalCorruption`.

Compaction (:meth:`DurableStreamEngine.compact`) deletes sealed segments
wholly covered by the newest valid snapshot — automatically after every
:meth:`snapshot_now` under the default ``compact="auto"`` policy, or on
demand (``repro stream compact``) under ``"manual"``. Deletion runs
oldest-first, so a crash mid-compaction leaves a contiguous suffix and a
restarted compaction resumes idempotently.
"""

from __future__ import annotations

import hashlib
import json
import os
from binascii import hexlify
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.stream.config import StreamConfig
from repro.stream.engine import AppliedEvent, StreamEngine
from repro.stream.events import StreamEvent
from repro.stream.snapshot import (
    latest_snapshot,
    newest_snapshot_seq,
    prune_snapshots,
    write_snapshot,
)
from repro.stream.wal import (
    FRAME_FMT,
    LEGACY_WAL_NAME,
    SegmentedWal,
    WalCorruption,
    list_segments,
    scan_store,
)

__all__ = ["DurableStreamEngine", "RecoveryInfo"]

#: legacy single-file log name; kept as an alias for older callers
WAL_NAME = LEGACY_WAL_NAME
META_NAME = "meta.json"


@dataclass(frozen=True, slots=True)
class RecoveryInfo:
    """What recovery found and did (attached to an opened engine)."""

    #: seqno of the snapshot recovery started from (0 = none, full replay)
    snapshot_seq: int
    #: first/last replayed log seqno (both 0 when nothing was replayed)
    replayed_from: int
    replayed_to: int
    #: verified records scanned during recovery (snapshot-covered
    #: segments are skipped entirely, so this is bounded by the snapshot
    #: cadence plus one segment — not the stream's lifetime)
    wal_records: int
    #: the newest segment ended in an incomplete frame (crash signature),
    #: since truncated
    torn_tail: bool
    #: bytes of torn tail dropped
    torn_bytes: int
    #: newest valid snapshot was ahead of the log (external truncation)
    snapshot_newer_than_log: bool
    #: log segments present / actually read during recovery
    segments: int = 1
    segments_scanned: int = 1
    #: log bytes read during recovery (the bounded-recovery metric;
    #: also emitted as the ``stream.recover.bytes`` gauge)
    bytes_scanned: int = 0

    def to_jsonable(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "replayed_from": self.replayed_from,
            "replayed_to": self.replayed_to,
            "wal_records": self.wal_records,
            "torn_tail": self.torn_tail,
            "torn_bytes": self.torn_bytes,
            "snapshot_newer_than_log": self.snapshot_newer_than_log,
            "segments": self.segments,
            "segments_scanned": self.segments_scanned,
            "bytes_scanned": self.bytes_scanned,
        }


class DurableStreamEngine:
    """A :class:`StreamEngine` whose every event survives a crash.

    Construct via :meth:`create` (new stream directory) or :meth:`open`
    (recover an existing one); the positional constructor is internal.
    """

    def __init__(
        self,
        directory: Path | None = None,
        config: StreamConfig | None = None,
        engine: StreamEngine | None = None,
        wal: SegmentedWal | None = None,
        recovery: RecoveryInfo | None = None,
    ):
        if directory is None or config is None or engine is None or wal is None:
            raise TypeError(
                "use DurableStreamEngine.create()/.open(); the positional "
                "constructor is internal"
            )
        self.directory = directory
        self.config = config
        self.engine = engine
        self._wal = wal
        #: recovery report when this instance came from :meth:`open`
        self.recovery = recovery
        self._since_snapshot = (
            engine.seq - recovery.snapshot_seq if recovery else 0
        )
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls, directory: str | Path, config: StreamConfig
    ) -> "DurableStreamEngine":
        """Initialize a fresh stream directory (must not already be one)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = directory / META_NAME
        if meta.exists() or list_segments(directory):
            raise FileExistsError(
                f"{directory} already holds a stream (use open())"
            )
        meta.write_text(
            json.dumps({"format": 2, "config": config.to_jsonable()}, indent=2)
            + "\n"
        )
        wal = SegmentedWal(
            directory,
            segment_bytes=config.segment_bytes,
            next_seq=1,
            fsync_every=config.fsync_every,
            fsync=config.fsync,
        )
        return cls(directory, config, StreamEngine(config), wal, None)

    @classmethod
    def open(cls, directory: str | Path) -> "DurableStreamEngine":
        """Recover an existing stream directory (snapshot + tail replay).

        Only segments at or after the newest valid snapshot's seqno are
        read; snapshot-covered segments cost nothing, so recovery time is
        bounded by the snapshot cadence (plus at most one segment of
        slack), however old the stream is.
        """
        directory = Path(directory)
        meta = directory / META_NAME
        if not meta.exists():
            raise FileNotFoundError(f"{directory} is not a stream directory")
        config = StreamConfig.from_jsonable(
            json.loads(meta.read_text())["config"]
        )
        # child spans name the layer a slow recovery spends its time in:
        # scan (read + verify the snapshot frame and the log suffix),
        # snapshot (parse its JSON), restore (from_state), replay (decode
        # every scanned record into an event, apply the tail)
        with obs.span("stream.recover", dir=str(directory)):
            with obs.span("stream.recover.scan"):
                snap = latest_snapshot(directory)
                snap_seq = snap[0] if snap else 0
                scan = scan_store(directory, from_seq=snap_seq + 1)
                if scan.torn_tail:
                    # drop the incomplete frame so the appender resumes
                    # cleanly
                    os.truncate(scan.tail_path, scan.valid_bytes)
                    obs.count("stream.recover.torn_tails")
                obs.gauge("stream.recover.bytes", scan.scanned_bytes)

            log_start = scan.first_seq
            if log_start and log_start > snap_seq + 1:
                raise WalCorruption(
                    f"log starts at seq {log_start} but the newest snapshot "
                    f"covers through {snap_seq}; records "
                    f"{snap_seq + 1}..{log_start - 1} are gone (compaction "
                    f"never deletes the segment holding snapshot.seq+1, so "
                    f"this is external interference)",
                    record_index=0,
                    last_good_seq=snap_seq,
                    offset=0,
                    seq=snap_seq + 1,
                )
            newer = snap_seq > scan.last_seq
            with obs.span("stream.recover.snapshot"):
                state = json.loads(snap[1]) if snap else None
            with obs.span("stream.recover.restore"):
                if state is not None:
                    engine = StreamEngine.from_state(config, state)
                else:
                    engine = StreamEngine(config)

            with obs.span("stream.recover.replay"):
                replayed_from = replayed_to = 0
                tail: list[tuple[int, StreamEvent]] = []
                contiguous = True
                for rec in scan.records:
                    seq, event = StreamEvent.from_wal_record(rec)
                    if seq <= snap_seq:
                        continue
                    if replayed_from == 0:
                        replayed_from = seq
                    elif seq != replayed_to + 1:
                        contiguous = False
                    replayed_to = seq
                    tail.append((seq, event))
                if contiguous and (not tail or replayed_from == engine.seq + 1):
                    # our own writer always produces this shape; apply_many
                    # assigns the same seqnos without the per-event seq
                    # check, and a long tail over a dense snapshot takes
                    # its bulk tier, which restore leaves a ready mirror
                    engine.apply_many([event for _, event in tail])
                else:
                    # externally produced logs may skip or repeat seqnos;
                    # replay them one by one under explicit seq validation
                    for seq, event in tail:
                        engine.apply(event, seq=seq, collect=False)
                obs.count("stream.recover.replayed", replayed_to - replayed_from + 1 if replayed_from else 0)

        info = RecoveryInfo(
            snapshot_seq=snap_seq,
            replayed_from=replayed_from,
            replayed_to=replayed_to,
            wal_records=len(scan.records),
            torn_tail=scan.torn_tail,
            torn_bytes=scan.torn_bytes,
            snapshot_newer_than_log=newer,
            segments=len(scan.segments),
            segments_scanned=len(scan.scanned),
            bytes_scanned=scan.scanned_bytes,
        )
        wal = SegmentedWal(
            directory,
            segment_bytes=config.segment_bytes,
            next_seq=engine.seq + 1,
            fsync_every=config.fsync_every,
            fsync=config.fsync,
        )
        return cls(directory, config, engine, wal, info)

    def close(self) -> None:
        """Flush, fsync and close the log (state remains recoverable)."""
        if self._closed:
            return
        self._closed = True
        self._wal.flush(force_fsync=self.config.fsync)
        self._wal.close()

    def abort(self) -> None:
        """Crash hook: drop buffered log bytes and stop (see store abort)."""
        self._closed = True
        self._wal.abort()

    def __enter__(self) -> "DurableStreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- write path --------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self.engine.seq

    @property
    def store(self) -> SegmentedWal:
        """The underlying :class:`~repro.stream.wal.LogStore` (read-mostly
        escape hatch for tooling; appends must go through the engine)."""
        return self._wal

    def apply(self, event: StreamEvent, *, collect: bool = True) -> AppliedEvent:
        """Apply one event and append it to the log; maybe snapshot."""
        if self._closed:
            raise RuntimeError("engine is closed")
        applied = self.engine.apply(event, collect=collect)
        self._wal.append((event.wal_payload(applied.seq),))
        self._since_snapshot += 1
        every = self.config.snapshot_every
        if every and self._since_snapshot >= every:
            self.snapshot_now()
        return applied

    def apply_batch(
        self, events, *, collect: bool = False
    ) -> list[AppliedEvent] | int:
        """Apply events in order.

        With ``collect`` (delta consumers), per-event
        :class:`AppliedEvent` results are returned. Without it — the hot
        ingest path — the loop skips every per-event object allocation
        and returns the event count; an event rejected mid-batch leaves
        its applied prefix in the log, exactly like the slow path.
        """
        if collect:
            out = [self.apply(e, collect=True) for e in events]
            obs.count("stream.events", len(out))
            return out
        if self._closed:
            raise RuntimeError("engine is closed")
        events = list(events)
        engine = self.engine
        wal = self._wal
        sha = hashlib.sha256
        hexl = hexlify
        every = self.config.snapshot_every
        # chunks never exceed fsync_every, so batched appends keep the
        # same per-record crash-loss bound as the one-at-a-time path
        chunk_max = max(1, min(4096, wal.fsync_every))
        i = 0
        n = len(events)
        done = 0
        try:
            while i < n:
                take = chunk_max
                if every:
                    # cut chunks at the snapshot boundary so snapshots
                    # land on the same seqnos as the one-event path
                    # (recovery can start past the cadence: take >= 1)
                    take = min(take, max(1, every - self._since_snapshot))
                chunk = events[i : i + take]
                start = engine.seq
                try:
                    engine.apply_many(chunk)
                finally:
                    # serialize + frame in one pass, and only the applied
                    # prefix: on a mid-chunk rejection the log holds
                    # exactly what the one-event path would have written
                    applied = engine.seq - start
                    if applied:
                        frames = []
                        ap = frames.append
                        seq = start
                        for j in range(applied):
                            # StreamEvent.wal_payload, inlined: the row
                            # f-string is the hottest serialization site
                            # and the method call alone is measurable here
                            ev = chunk[j]
                            seq += 1
                            kind, node, x = ev.kind, ev.node, ev.x
                            if x is None:
                                p = f'[{seq},"{kind}",{node}]'
                            elif ev.r is None:
                                p = (
                                    f'[{seq},"{kind}",{node}'
                                    f',{x!r},{ev.y!r}]'
                                )
                            else:
                                p = (
                                    f'[{seq},"{kind}",{node}'
                                    f',{x!r},{ev.y!r},{ev.r!r}]'
                                )
                            data = p.encode()
                            ap(
                                FRAME_FMT
                                % (len(data), hexl(sha(data).digest()), data)
                            )
                        wal.append_frames(frames)
                        self._since_snapshot += applied
                        done += applied
                if every and self._since_snapshot >= every:
                    self.snapshot_now()
                i += len(chunk)
        finally:
            obs.count("stream.events", done)
        return done

    def flush(self) -> None:
        """Make everything applied so far durable right now."""
        self._wal.flush(force_fsync=self.config.fsync)

    def snapshot_now(self) -> Path:
        """Write a snapshot at the current seqno (the log is fsynced
        first, so a snapshot can never be ahead of the durable log).
        Under ``compact="auto"``, snapshot-covered sealed segments are
        deleted right after."""
        self._wal.flush(force_fsync=True)
        with obs.span("stream.snapshot", seq=self.engine.seq):
            path = write_snapshot(
                self.directory,
                self.engine.seq,
                self.engine.state_json(),
                fsync=self.config.fsync,
            )
        prune_snapshots(self.directory, self.config.keep_snapshots)
        self._since_snapshot = 0
        if self.config.compact == "auto":
            self._compact_to(self.engine.seq)
        return path

    # -- compaction --------------------------------------------------------

    def compact(self, *, max_deletes: int | None = None) -> list[Path]:
        """Delete sealed segments wholly covered by the newest valid
        snapshot; returns the deleted paths.

        Safe to call at any time and idempotent: the cover is re-derived
        from disk, the segment containing ``snapshot.seq + 1`` is never
        touched, and deletion runs oldest-first so an interrupted
        compaction simply resumes on the next call. ``max_deletes`` is
        the chaos harness's mid-compaction kill point.
        """
        return self._compact_to(
            newest_snapshot_seq(self.directory), max_deletes=max_deletes
        )

    def _compact_to(
        self, cover_seq: int, *, max_deletes: int | None = None
    ) -> list[Path]:
        removed = self._wal.compact(cover_seq, max_deletes=max_deletes)
        if removed:
            obs.count("stream.compact.segments_deleted", len(removed))
        return removed
