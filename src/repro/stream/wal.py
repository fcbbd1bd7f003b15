"""Segmented write-ahead log: framed JSONL with length + SHA-256.

Record framing
--------------
One record per line::

    <payload-bytes> <sha256-hex> <payload-json>\\n

- ``payload-bytes`` — decimal byte length of the JSON payload;
- ``sha256-hex``    — SHA-256 digest (64 hex chars) of the payload bytes;
- ``payload-json``  — compact JSON (never contains a raw newline).

The explicit length makes torn tails detectable without guessing, and the
checksum makes silent corruption detectable explicitly. The two failure
modes get *different* treatment, because they mean different things:

- **torn tail** — the file ends in an incomplete frame (no terminating
  newline, or fewer payload bytes than declared at EOF). This is the
  expected signature of a crash mid-write (a killed process loses its
  userspace buffer at an arbitrary byte boundary) and is *tolerated*:
  the scan reports the valid prefix and recovery truncates the file to
  it.
- **corruption** — a *complete* frame whose checksum (or framing) does
  not verify, or an invalid frame followed by further data. No crash
  produces this; a flipped bit does. :func:`scan_wal` raises
  :class:`WalCorruption` naming the failing record and the last good
  seqno, and recovery refuses to continue past it.

Segmented layout
----------------
The log is stored as rotated *segments* ``wal-<first_seq>.jsonl``
(zero-padded so filename order is seq order), where ``<first_seq>`` is
the seqno of the segment's first record. :class:`SegmentedWal` rotates to
a fresh segment whenever the next frame would push the active segment
past ``segment_bytes`` — frames are never split across segments, and a
frame larger than ``segment_bytes`` gets a segment of its own. Sealing a
segment flushes (and fsyncs, when enabled) its bytes before the next
segment opens, so only the *newest* segment can ever hold a torn tail;
a torn or empty interior segment is corruption, not crash residue.
A pre-segmentation single-file log (``wal.jsonl``) is read as a sealed
legacy segment with ``first_seq == 1``; the writer never appends to it —
the first append after migration rotates into a fresh segment. This read
path stays after 2.0.0 dropped the single-file constructor keyword: a stream
directory written before segmentation has no other way in, and removing
it needs a one-shot migrate command first.

The storage seam is the runtime-checkable :class:`LogStore` protocol
(``append`` / ``flush`` / ``scan`` / ``seal``), of which
:class:`SegmentedWal` is the canonical implementation.

Writes are buffered; appends trigger ``flush``+``fsync`` every
``fsync_every`` records, so the crash-loss window is bounded by the batch
size (the throughput/durability trade measured in
``benchmarks/bench_stream.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from binascii import hexlify
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

from repro import obs

__all__ = [
    "FRAME_FMT",
    "LEGACY_WAL_NAME",
    "LogStore",
    "SegmentInfo",
    "SegmentedWal",
    "StoreScan",
    "WalCorruption",
    "WalScan",
    "WriteAheadLog",
    "frame_record",
    "list_segments",
    "scan_store",
    "scan_wal",
    "segment_name",
    "store_bytes",
]

_SHA_HEX_LEN = 64

#: pre-segmentation single-file log name (PR 6 layout); read-only now
LEGACY_WAL_NAME = "wal.jsonl"

_SEGMENT_RE = re.compile(r"^wal-(\d+)\.jsonl$")

#: one WAL line: b"<len> <sha256-hex> <payload>\n"
FRAME_FMT = b"%d %s %s\n"

#: the decoder behind json.loads, called at an offset into a whole
#: segment's text by scan_wal
_RAW_DECODE = json.JSONDecoder().raw_decode


def _record_seq(rec) -> int:
    """Seqno of a decoded payload: row form ``[seq, ...]`` or object form
    ``{"seq": ...}`` (the WAL itself is payload-agnostic)."""
    return int(rec[0]) if isinstance(rec, list) else int(rec["seq"])


class WalCorruption(Exception):
    """A corrupted (not merely torn) WAL record.

    Attributes
    ----------
    record_index:
        0-based index of the failing record in the file.
    last_good_seq:
        ``seq`` of the last record that verified (0 if none did).
    seq:
        ``seq`` parsed out of the corrupt payload when it still decodes,
        else ``last_good_seq + 1`` (the slot the record occupies).
    offset:
        Byte offset of the failing frame.
    """

    def __init__(
        self,
        reason: str,
        *,
        record_index: int,
        last_good_seq: int,
        offset: int,
        seq: int | None = None,
    ):
        self.reason = reason
        self.record_index = record_index
        self.last_good_seq = last_good_seq
        self.offset = offset
        self.seq = seq if seq is not None else last_good_seq + 1
        super().__init__(
            f"WAL corruption at record {record_index} (seq {self.seq}, "
            f"byte {offset}): {reason}"
        )


def frame_record(payload_json: str) -> bytes:
    """Frame one pre-serialized JSON payload into a WAL line."""
    data = payload_json.encode("utf-8")
    return FRAME_FMT % (len(data), hexlify(hashlib.sha256(data).digest()), data)


@dataclass
class WalScan:
    """Outcome of scanning a WAL file's valid prefix."""

    path: Path
    records: list[dict] = field(default_factory=list)
    #: byte length of the valid prefix (complete, verified records)
    valid_bytes: int = 0
    #: True when the file ended in an incomplete frame (crash signature)
    torn_tail: bool = False
    #: bytes of incomplete trailing frame dropped by the scan
    torn_bytes: int = 0

    @property
    def last_seq(self) -> int:
        return _record_seq(self.records[-1]) if self.records else 0

    @property
    def first_seq(self) -> int:
        return _record_seq(self.records[0]) if self.records else 0


def scan_wal(path: str | Path) -> WalScan:
    """Read a WAL file's verified record prefix (see module docstring).

    A missing or empty file yields an empty scan. Raises
    :class:`WalCorruption` on a checksum/framing failure that is not a
    torn tail, or on a verified payload that is not one JSON value.

    One loop verifies every frame; the verified payloads are then decoded
    in one pass over the file's text, each bound to end exactly where its
    frame does. The outcome, including which error names which record,
    is that of verifying and decoding one frame at a time
    (``tests/test_wal_scan_reference.py``).
    """
    path = Path(path)
    scan = WalScan(path=path)
    if not path.exists():
        return scan
    data = path.read_bytes()
    size = len(data)
    # verify every frame (the prefix up to a torn tail or the first bad
    # frame), keeping each payload's byte span for the decode pass below
    starts: list[int] = []
    ends: list[int] = []
    failure = None
    offset = 0
    while offset < size:
        nl = data.find(b"\n", offset)
        if nl == -1:
            # no terminating newline: a write died mid-frame
            scan.torn_tail = True
            scan.torn_bytes = size - offset
            break
        line = data[offset:nl]
        failure = _check_frame(line)
        if failure is not None:
            if nl == size - 1 and _looks_truncated(line):
                # final line, payload shorter than declared: torn write
                # that happened to end on a newline from the lost bytes
                scan.torn_tail = True
                scan.torn_bytes = size - offset
                failure = None
            break
        starts.append(offset + line.find(b" ") + _SHA_HEX_LEN + 2)
        ends.append(nl)
        offset = nl + 1

    # decode the verified payloads in one pass over the segment's text.
    # Latin-1 maps byte i to char i, so the spans index the text as they
    # are. An ASCII payload whose value ends exactly at its own end
    # decodes here as json.loads would decode its bytes; anything else
    # (a value that stops short or runs on past the frame, whitespace,
    # non-ASCII bytes, not JSON) goes to json.loads on the payload alone,
    # which decides it as a record-at-a-time scan would: the same value,
    # or the same error naming the same record
    text = data.decode("latin-1")
    ascii_only = data.isascii()
    raw_decode = _RAW_DECODE
    records = scan.records
    append = records.append
    for index, (start, end) in enumerate(zip(starts, ends)):
        try:
            record, stop = raw_decode(text, start)
        except (ValueError, RecursionError):
            stop = -1
        if stop != end or not (ascii_only or data[start:end].isascii()):
            try:
                record = json.loads(data[start:end])
            except json.JSONDecodeError as exc:  # checksum ok but not JSON
                raise WalCorruption(
                    f"payload verifies but is not JSON: {exc}",
                    record_index=index,
                    last_good_seq=scan.last_seq,
                    offset=ends[index - 1] + 1 if index else 0,
                ) from exc
        append(record)

    if failure is not None:
        raise WalCorruption(
            failure,
            record_index=len(records),
            last_good_seq=scan.last_seq,
            offset=offset,
            seq=_seq_hint(line),
        )
    scan.valid_bytes = offset
    return scan


def _check_frame(line: bytes) -> str | None:
    """None if the newline-terminated frame verifies, else the reason."""
    sp1 = line.find(b" ")
    if sp1 <= 0:
        return "missing length field"
    try:
        length = int(line[:sp1])
    except ValueError:
        return "length field is not an integer"
    sp2 = sp1 + 1 + _SHA_HEX_LEN
    if len(line) <= sp2 or line[sp2 : sp2 + 1] != b" ":
        return "missing or malformed digest field"
    digest = line[sp1 + 1 : sp2]
    payload = line[sp2 + 1 :]
    if len(payload) != length:
        return (
            f"payload is {len(payload)} bytes, header declares {length}"
        )
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        return "checksum mismatch"
    return None


def _looks_truncated(line: bytes) -> bool:
    """A final frame with a valid header but *fewer* payload bytes than
    declared — distinguishable from in-place corruption, which keeps the
    declared length."""
    sp1 = line.find(b" ")
    if sp1 <= 0:
        return True  # even the header is partial
    try:
        length = int(line[:sp1])
    except ValueError:
        return False
    return len(line) - (sp1 + 1 + _SHA_HEX_LEN + 1) < length


def _seq_hint(line: bytes) -> int | None:
    try:
        sp1 = line.index(b" ")
        payload = line[sp1 + 1 + _SHA_HEX_LEN + 1 :]
        rec = json.loads(payload)
        seq = rec[0] if isinstance(rec, list) else rec.get("seq")
        return int(seq) if isinstance(seq, int) else None
    except Exception:
        return None


class WriteAheadLog:
    """Appender over one WAL file (reading goes through :func:`scan_wal`)."""

    def __init__(
        self,
        path: str | Path,
        *,
        fsync_every: int = 256,
        fsync: bool = True,
    ):
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = Path(path)
        self.fsync_every = int(fsync_every)
        self.fsync = bool(fsync)
        self._f = open(self.path, "ab")
        self._unsynced = 0
        self._closed = False
        self.appended = 0

    def append(self, record: dict) -> None:
        """Append one record; flushes+fsyncs every ``fsync_every``."""
        self.append_payload(
            json.dumps(record, separators=(",", ":"), allow_nan=False)
        )

    def append_payload(self, payload_json: str) -> None:
        """Append one pre-serialized JSON payload (hot ingest path)."""
        data = payload_json.encode("utf-8")
        digest = hexlify(hashlib.sha256(data).digest())
        self._f.write(FRAME_FMT % (len(data), digest, data))
        self.appended += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.flush()

    def append_payloads(self, payloads: list[str]) -> None:
        """Append pre-serialized payloads as one buffered write.

        Same framing as :meth:`append_payload`, one syscall-side write
        for the whole batch. The flush check runs once per batch, so the
        crash-loss window is ``max(len(payloads), fsync_every)`` records;
        the bulk ingest path keeps its batches at or below
        ``fsync_every``, preserving the per-record bound.
        """
        if not payloads:
            return
        sha256 = hashlib.sha256
        parts = []
        for payload_json in payloads:
            data = payload_json.encode("utf-8")
            parts.append(
                FRAME_FMT % (len(data), hexlify(sha256(data).digest()), data)
            )
        self._f.write(b"".join(parts))
        self.appended += len(payloads)
        self._unsynced += len(payloads)
        if self._unsynced >= self.fsync_every:
            self.flush()

    def append_framed(self, framed: bytes, count: int) -> None:
        """Append ``count`` records already framed as :data:`FRAME_FMT`
        lines (the durable engine's fused hot loop serializes and frames
        in a single pass, then hands the finished bytes over)."""
        self._f.write(framed)
        self.appended += count
        self._unsynced += count
        if self._unsynced >= self.fsync_every:
            self.flush()

    def flush(self, *, force_fsync: bool = False) -> None:
        """Push buffered records to the OS (and to disk when fsyncing)."""
        self._f.flush()
        if self.fsync or force_fsync:
            os.fsync(self._f.fileno())
            obs.count("stream.wal.fsyncs")
        self._unsynced = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        self._f.close()

    def abort(self) -> None:
        """Simulate a crash: drop the userspace buffer and close.

        Closes the file descriptor *under* the buffered writer so its
        pending bytes can never reach the OS — byte-for-byte what a
        SIGKILL between fsync batches does to the file. Test/chaos hook.
        """
        if self._closed:
            return
        self._closed = True
        try:
            os.close(self._f.fileno())
        except OSError:
            pass
        try:
            self._f.close()  # flush attempt hits the dead fd; swallowed
        except (OSError, ValueError):
            pass

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Segmented store
# ---------------------------------------------------------------------------


def segment_name(first_seq: int) -> str:
    """Filename of the segment whose first record is ``first_seq``
    (zero-padded so lexicographic filename order is seq order)."""
    return f"wal-{first_seq:020d}.jsonl"


@dataclass(frozen=True, slots=True)
class SegmentInfo:
    """One log segment on disk, identified by its filename."""

    #: seqno of the segment's first record (declared by the filename; a
    #: legacy ``wal.jsonl`` always starts at 1)
    first_seq: int
    path: Path
    #: True for a pre-segmentation single-file ``wal.jsonl``
    legacy: bool = False


def list_segments(directory: str | Path) -> list[SegmentInfo]:
    """All log segments in ``directory``, ordered by first seqno.

    A legacy ``wal.jsonl`` (if present) sorts first, as the segment
    holding seq 1. A missing directory yields an empty list.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out: list[SegmentInfo] = []
    legacy = directory / LEGACY_WAL_NAME
    if legacy.exists():
        out.append(SegmentInfo(1, legacy, legacy=True))
    numbered = []
    for p in directory.iterdir():
        m = _SEGMENT_RE.match(p.name)
        if m:
            numbered.append(SegmentInfo(int(m.group(1)), p))
    numbered.sort(key=lambda s: s.first_seq)
    return out + numbered


def store_bytes(directory: str | Path) -> int:
    """Total on-disk log bytes across every segment (legacy included)."""
    return sum(s.path.stat().st_size for s in list_segments(directory))


@dataclass
class StoreScan:
    """Outcome of scanning a segmented store's suffix (see
    :func:`scan_store`)."""

    directory: Path
    #: every segment present, in seq order
    segments: list[SegmentInfo] = field(default_factory=list)
    #: the suffix of :attr:`segments` actually read
    scanned: list[SegmentInfo] = field(default_factory=list)
    #: decoded payloads from the scanned segments, in order
    records: list = field(default_factory=list)
    #: byte length of the newest segment's verified prefix (truncation
    #: target when :attr:`torn_tail`)
    valid_bytes: int = 0
    #: the newest scanned segment's file (None when nothing was scanned)
    tail_path: Path | None = None
    #: the newest segment ended in an incomplete frame (crash signature)
    torn_tail: bool = False
    torn_bytes: int = 0
    #: total bytes read across the scanned segments
    scanned_bytes: int = 0

    @property
    def first_seq(self) -> int:
        return _record_seq(self.records[0]) if self.records else 0

    @property
    def last_seq(self) -> int:
        return _record_seq(self.records[-1]) if self.records else 0


def _store_corruption(reason: str, *, last_good_seq: int) -> WalCorruption:
    return WalCorruption(
        reason, record_index=0, last_good_seq=last_good_seq, offset=0
    )


def scan_store(directory: str | Path, *, from_seq: int = 1) -> StoreScan:
    """Scan the store suffix holding every record with seq >= ``from_seq``.

    Starts at the newest segment whose declared first seqno is at most
    ``from_seq`` (older segments are *not read at all* — this is what
    makes recovery O(data since the last snapshot) instead of O(stream
    lifetime)) and reads through the newest segment. Torn-tail tolerance
    applies only to the newest segment; a sealed segment that is torn,
    empty, discontiguous with its neighbour, or whose first record
    contradicts its filename raises :class:`WalCorruption`.
    """
    directory = Path(directory)
    scan = StoreScan(directory=directory, segments=list_segments(directory))
    segs = scan.segments
    if not segs:
        return scan
    start = 0
    for i, seg in enumerate(segs):
        if seg.first_seq <= from_seq:
            start = i
    prev_last: int | None = None
    for i in range(start, len(segs)):
        seg = segs[i]
        newest = i == len(segs) - 1
        try:
            part = scan_wal(seg.path)
        except WalCorruption as exc:
            raise WalCorruption(
                f"{seg.path.name}: {exc.reason}",
                record_index=exc.record_index,
                last_good_seq=exc.last_good_seq or (prev_last or 0),
                offset=exc.offset,
                seq=exc.seq,
            ) from exc
        if part.torn_tail and not newest:
            raise _store_corruption(
                f"sealed segment {seg.path.name} ends in a torn frame "
                f"(only the newest segment may)",
                last_good_seq=part.last_seq or (prev_last or 0),
            )
        if part.records:
            first = _record_seq(part.records[0])
            declared = 1 if seg.legacy else seg.first_seq
            if first != declared:
                raise _store_corruption(
                    f"segment {seg.path.name} starts at seq {first}, "
                    f"expected {declared}",
                    last_good_seq=prev_last or 0,
                )
            if prev_last is not None and first != prev_last + 1:
                raise _store_corruption(
                    f"segment {seg.path.name} starts at seq {first}, "
                    f"previous segment ended at {prev_last}",
                    last_good_seq=prev_last,
                )
            prev_last = _record_seq(part.records[-1])
        elif not newest:
            raise _store_corruption(
                f"sealed segment {seg.path.name} is empty",
                last_good_seq=prev_last or 0,
            )
        scan.records.extend(part.records)
        scan.scanned.append(seg)
        scan.scanned_bytes += part.valid_bytes + part.torn_bytes
        if newest:
            scan.valid_bytes = part.valid_bytes
            scan.tail_path = seg.path
            scan.torn_tail = part.torn_tail
            scan.torn_bytes = part.torn_bytes
    return scan


@runtime_checkable
class LogStore(Protocol):
    """The durable engine's storage seam: an ordered, scannable,
    crash-consistent record log.

    Implementations persist pre-serialized JSON payloads in seq order
    (``append``), bound the crash-loss window (``flush``), recover their
    verified contents (``scan`` — raising
    :class:`WalCorruption` on anything a crash cannot explain), and make
    the written prefix immutable on demand (``seal``).
    :class:`SegmentedWal` is the canonical implementation.
    """

    def append(self, payloads: Sequence[str]) -> None:
        """Append pre-serialized JSON payloads, one record each, in order."""
        ...

    def flush(self, *, force_fsync: bool = False) -> None:
        """Push buffered records to the OS (and to disk when fsyncing)."""
        ...

    def scan(self, *, from_seq: int = 1) -> StoreScan:
        """Read the verified suffix holding records with seq >= ``from_seq``."""
        ...

    def seal(self) -> None:
        """Make everything appended so far immutable; the next append
        starts a fresh segment."""
        ...


class SegmentedWal:
    """Rotating segmented appender over one stream directory.

    ``next_seq`` must be the seqno the *next* appended record will carry
    (the durable engine passes ``engine.seq + 1`` after recovery); the
    store counts appends to name new segments. On open, the newest
    non-legacy segment with room left becomes the active appender; a
    full newest segment, a legacy ``wal.jsonl``, or an empty directory
    all defer to a rotation on the first append.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int,
        next_seq: int = 1,
        fsync_every: int = 256,
        fsync: bool = True,
    ):
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if next_seq < 1:
            raise ValueError("next_seq must be >= 1")
        self.directory = Path(directory)
        self.segment_bytes = int(segment_bytes)
        self.fsync_every = int(fsync_every)
        self.fsync = bool(fsync)
        self._next_seq = int(next_seq)
        self._f = None
        self._active_path: Path | None = None
        self._active_bytes = 0
        self._unsynced = 0
        self._closed = False
        self.appended = 0
        self.rotations = 0
        segs = list_segments(self.directory)
        if segs:
            newest = segs[-1]
            if (
                not newest.legacy
                and newest.path.stat().st_size < self.segment_bytes
            ):
                self._f = open(newest.path, "ab")
                self._active_path = newest.path
                self._active_bytes = self._f.tell()

    # -- LogStore surface --------------------------------------------------

    def append(self, payloads: Sequence[str]) -> None:
        """Frame and append pre-serialized JSON payloads in order."""
        if not payloads:
            return
        sha256 = hashlib.sha256
        frames = []
        for payload_json in payloads:
            data = payload_json.encode("utf-8")
            frames.append(
                FRAME_FMT % (len(data), hexlify(sha256(data).digest()), data)
            )
        self.append_frames(frames)

    def append_frames(self, frames: Sequence[bytes]) -> None:
        """Append records already framed as :data:`FRAME_FMT` lines (the
        durable engine's fused hot loop serializes and frames in a single
        pass, then hands the finished bytes over). Rotation cuts land on
        frame boundaries only."""
        if self._closed:
            raise ValueError("store is closed")
        n = len(frames)
        if not n:
            return
        total = sum(map(len, frames))
        if self._f is not None and self._active_bytes + total <= self.segment_bytes:
            # fast path: the whole batch fits in the active segment
            self._f.write(b"".join(frames))
            self._active_bytes += total
        else:
            seq = self._next_seq
            pending: list[bytes] = []
            pending_bytes = 0
            for frame in frames:
                flen = len(frame)
                filled = self._active_bytes + pending_bytes
                if self._f is None or (filled > 0 and filled + flen > self.segment_bytes):
                    if pending:
                        self._f.write(b"".join(pending))
                        self._active_bytes += pending_bytes
                        pending, pending_bytes = [], 0
                    self._rotate(seq)
                pending.append(frame)
                pending_bytes += flen
                seq += 1
            if pending:
                self._f.write(b"".join(pending))
                self._active_bytes += pending_bytes
        self._next_seq += n
        self.appended += n
        self._unsynced += n
        if self._unsynced >= self.fsync_every:
            self.flush()

    def flush(self, *, force_fsync: bool = False) -> None:
        """Push buffered records to the OS (and to disk when fsyncing)."""
        if self._f is not None:
            self._f.flush()
            if self.fsync or force_fsync:
                os.fsync(self._f.fileno())
                obs.count("stream.wal.fsyncs")
        self._unsynced = 0

    def scan(self, *, from_seq: int = 1) -> StoreScan:
        """Read the verified store suffix (see :func:`scan_store`)."""
        return scan_store(self.directory, from_seq=from_seq)

    def seal(self) -> None:
        """Seal the active segment; the next append rotates."""
        if self._f is not None:
            self._seal_active()

    # -- rotation + compaction ---------------------------------------------

    @property
    def active_path(self) -> Path | None:
        """The segment currently accepting appends (None when the next
        append will rotate into a fresh one)."""
        return self._active_path

    def _seal_active(self) -> None:
        # sealed bytes must be durably ordered before the next segment
        # opens: a machine crash must never yield a torn *sealed* segment
        # under a surviving newer one, because recovery treats that as
        # corruption rather than crash residue
        self._f.flush()
        if self.fsync:
            os.fsync(self._f.fileno())
            obs.count("stream.wal.fsyncs")
        self._f.close()
        self._f = None
        self._active_path = None
        self._active_bytes = 0
        self._unsynced = 0

    def _rotate(self, first_seq: int) -> None:
        if self._f is not None:
            self._seal_active()
            self.rotations += 1
            obs.count("stream.wal.rotations")
        path = self.directory / segment_name(first_seq)
        self._f = open(path, "ab")
        self._active_path = path
        self._active_bytes = self._f.tell()
        obs.count("stream.wal.segments")

    def compact(
        self, cover_seq: int, *, max_deletes: int | None = None
    ) -> list[Path]:
        """Delete sealed segments whose records all have seq <= ``cover_seq``.

        A segment is wholly covered exactly when its successor's first
        seqno is at most ``cover_seq + 1`` — so the segment containing
        ``cover_seq + 1`` is never deleted, and neither is the newest
        segment (which is never sealed from the store's point of view).
        Deletion runs oldest-first, so a crash mid-compaction leaves a
        contiguous log suffix and a re-run resumes idempotently.
        ``max_deletes`` is the chaos harness's mid-compaction kill point.
        Returns the deleted paths.
        """
        segs = list_segments(self.directory)
        removed: list[Path] = []
        for i in range(len(segs) - 1):
            if segs[i + 1].first_seq > cover_seq + 1:
                break
            if segs[i].path == self._active_path:
                break
            if max_deletes is not None and len(removed) >= max_deletes:
                break
            try:
                segs[i].path.unlink()
            except OSError:
                break
            removed.append(segs[i].path)
        return removed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._f is not None:
            self.flush()
            self._f.close()
            self._f = None

    def abort(self) -> None:
        """Simulate a crash: drop the active segment's userspace buffer
        and close (sealed segments were flushed at rotation, exactly as
        a SIGKILL would find them). Test/chaos hook."""
        if self._closed:
            return
        self._closed = True
        if self._f is None:
            return
        try:
            os.close(self._f.fileno())
        except OSError:
            pass
        try:
            self._f.close()  # flush attempt hits the dead fd; swallowed
        except (OSError, ValueError):
            pass
        self._f = None

    def __enter__(self) -> "SegmentedWal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
