"""Differential suite: snapshot restore and recovery against frozen copies.

``StreamEngine.from_state`` now also fills the bulk tier's float64
mirror (``_np``) from the snapshot rows, so a recovery's tail replay
never converts the capacity-long position lists. ``ref_from_state``
below is the restore as it was (the per-row loop, no mirror), and
``ref_scan_wal`` (from ``tests/test_wal_scan_reference.py``) the
record-at-a-time log scan.

The new restore must leave the same ``xs``/``ys``/``rs``/``counts``/
``active``/``n_active``/``seq`` and the same ``_grid``, bucket order
included, with ``_np`` equal to ``np.asarray`` of the lists.
``DurableStreamEngine.open`` must give the same ``state_digest`` and
:class:`RecoveryInfo` as ``open`` run with both frozen copies patched
in, for uniform, clustered and mobile streams with and without a
snapshot, and raise the same error where the old recovery raised: a
non-contiguous external log (the per-event replay path) and a
checksummed but malformed record before the snapshot's seq.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import repro.stream.wal as wal_module
from repro.stream import (
    EVENT_FAMILIES,
    DurableStreamEngine,
    StreamConfig,
    StreamEngine,
    list_segments,
    random_stream_events,
)
from repro.stream.engine import _BULK_MIN_EVENTS
from repro.stream.wal import frame_record
from tests.test_wal_scan_reference import ref_scan_wal

# -- frozen reference ----------------------------------------------------------

_GRID_STRIDE = 1 << 32


def ref_from_state(config: StreamConfig, state: dict) -> StreamEngine:
    """The restore loop as it was: lists, grid and counts from the rows,
    no float64 mirror (``_np`` stays None)."""
    engine = StreamEngine(config)
    grid = engine._grid
    inv = engine._inv
    for i, x, y, r, c in state["nodes"]:
        i = int(i)
        engine.xs[i] = x
        engine.ys[i] = y
        engine.rs[i] = r
        engine.counts[i] = int(c)
        engine.active[i] = 1
        grid.setdefault(
            int(x * inv) * _GRID_STRIDE + int(y * inv), []
        ).append(i)
    engine.n_active = sum(engine.active)
    engine.seq = int(state["seq"])
    engine._np = None
    return engine


# -- helpers -------------------------------------------------------------------

#: dense enough that a tail of >= _BULK_MIN_EVENTS takes the bulk tier
DENSE = dict(capacity=2000, side=20.0, r_max=1.0)


def events_for(family: str, n: int, seed: int):
    return random_stream_events(
        n, capacity=DENSE["capacity"], side=DENSE["side"],
        r_max=DENSE["r_max"], seed=seed, family=family,
    )


def config(**over) -> StreamConfig:
    base = dict(
        capacity=DENSE["capacity"], r_max=DENSE["r_max"], fsync=False,
        snapshot_every=0, segment_bytes=64 * 1024,
    )
    base.update(over)
    return StreamConfig(**base)


def assert_same_restore(got: StreamEngine, want: StreamEngine) -> None:
    assert got.xs == want.xs
    assert got.ys == want.ys
    assert got.rs == want.rs
    assert [type(v) for v in got.xs] == [type(v) for v in want.xs]
    assert got.counts == want.counts
    assert got.active == want.active
    assert got.n_active == want.n_active
    assert got.seq == want.seq
    # same buckets, in the same order, holding nodes in the same order
    assert list(got._grid.items()) == list(want._grid.items())
    mirror = got._np
    assert mirror is not None
    for arr, lst in zip(mirror, (got.xs, got.ys, got.rs)):
        assert arr.dtype == np.float64 and arr.shape == (len(lst),)
        np.testing.assert_array_equal(arr, np.asarray(lst, dtype=np.float64))
    assert got.state_digest() == want.state_digest()
    assert got.state_json() == want.state_json()


def recover(directory, monkeypatch=None):
    """``open`` as it is, or (given ``monkeypatch``) with the frozen scan
    and restore patched in; returns the outcome for comparison."""
    if monkeypatch is not None:
        monkeypatch.setattr(wal_module, "scan_wal", ref_scan_wal)
        monkeypatch.setattr(
            StreamEngine, "from_state", classmethod(
                lambda cls, cfg, state: ref_from_state(cfg, state)
            ),
        )
    try:
        try:
            eng = DurableStreamEngine.open(directory)
        except Exception as exc:
            return ("error", type(exc), str(exc))
        eng.close()
        return ("ok", eng.engine.state_digest(), eng.recovery, eng.engine.seq)
    finally:
        if monkeypatch is not None:
            monkeypatch.undo()


def assert_same_recovery(directory, monkeypatch):
    """Each recovery opens its own copy of ``directory``: ``open``
    truncates a torn tail, which the second one would not see."""
    ref_copy = directory.with_name(directory.name + "-ref")
    shutil.copytree(directory, ref_copy)
    want = recover(ref_copy, monkeypatch)
    got = recover(directory)
    assert got == want
    return got


def ingest(directory, cfg, events, *, abort=False):
    eng = DurableStreamEngine.create(directory, cfg)
    for i in range(0, len(events), 500):
        eng.apply_batch(events[i : i + 500])
    digest = eng.engine.state_digest()
    if abort:
        eng.abort()
    else:
        eng.close()
    return digest


# -- restore -------------------------------------------------------------------


class TestFromState:
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_restore_matches_frozen_loop(self, family):
        cfg = config()
        live = StreamEngine(cfg)
        live.apply_many(events_for(family, 3000, seed=3))
        state = json.loads(live.state_json())
        assert_same_restore(
            StreamEngine.from_state(cfg, state), ref_from_state(cfg, state)
        )

    def test_empty_state(self):
        cfg = config()
        state = {"seq": 0, "nodes": []}
        got = StreamEngine.from_state(cfg, state)
        assert_same_restore(got, ref_from_state(cfg, state))
        assert not got._np[0].any()

    def test_int_coordinates_stay_ints_in_the_lists(self):
        # a JSON int stays a Python int in the lists (its repr feeds the
        # digest); the mirror holds it as a float64
        cfg = config(capacity=16)
        state = {"seq": 7, "nodes": [[3, 1, -2, 1, 0], [9, 0.5, 2.5, 0.25, 1]]}
        got = StreamEngine.from_state(cfg, state)
        assert_same_restore(got, ref_from_state(cfg, state))
        assert type(got.xs[3]) is int and got._np[0][3] == 1.0

    def test_shared_buckets_keep_row_order(self):
        cfg = config(capacity=64)
        nodes = [[i, 0.1 * (i % 5), 0.2, 1.0, 0] for i in (40, 2, 33, 7, 19, 5)]
        state = {"seq": 6, "nodes": nodes}
        got = StreamEngine.from_state(cfg, state)
        assert_same_restore(got, ref_from_state(cfg, state))
        assert list(got._grid.values()) == [[40, 2, 33, 7, 19, 5]]

    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_bulk_apply_on_restored_mirror(self, family):
        """A dense batch right after restore takes the bulk tier through
        the ready mirror, with the same result as the frozen restore's
        engine (which converts the lists)."""
        cfg = config()
        events = events_for(family, 3000 + 2 * _BULK_MIN_EVENTS, seed=8)
        live = StreamEngine(cfg)
        live.apply_many(events[:3000])
        state = json.loads(live.state_json())
        got = StreamEngine.from_state(cfg, state)
        want = ref_from_state(cfg, state)
        for engine in (got, want):
            engine.apply_many(events[3000:])
        live.apply_many(events[3000:])
        assert got.state_digest() == want.state_digest() == live.state_digest()
        assert list(got._grid.items()) == list(want._grid.items())
        for a, b in zip(got._np, want._np):
            np.testing.assert_array_equal(a, b)


# -- recovery ------------------------------------------------------------------


class TestOpenMatchesFrozenRecovery:
    @pytest.mark.parametrize("snapshot_every", [0, 1700])
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_clean_stream(self, tmp_path, monkeypatch, family, snapshot_every):
        events = events_for(family, 4000, seed=21)
        cfg = config(snapshot_every=snapshot_every)
        live = ingest(tmp_path / "s", cfg, events)
        got = assert_same_recovery(tmp_path / "s", monkeypatch)
        assert got[0] == "ok" and got[1] == live
        info = got[2]
        assert info.snapshot_seq == (3400 if snapshot_every else 0)
        assert info.replayed_to == 4000

    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_torn_tail(self, tmp_path, monkeypatch, family):
        events = events_for(family, 3400, seed=4)
        ingest(tmp_path / "s", config(snapshot_every=1000), events)
        newest = list_segments(tmp_path / "s")[-1].path
        data = newest.read_bytes()
        newest.write_bytes(data[:-25])
        got = assert_same_recovery(tmp_path / "s", monkeypatch)
        assert got[0] == "ok" and got[2].torn_tail
        assert got[2].replayed_from == 3001 and got[2].replayed_to == 3399

    def test_snapshot_at_the_last_record(self, tmp_path, monkeypatch):
        events = events_for("uniform", 3000, seed=6)
        live = ingest(tmp_path / "s", config(snapshot_every=1500), events)
        got = assert_same_recovery(tmp_path / "s", monkeypatch)
        assert got[1] == live and got[2].replayed_from == 0

    def test_non_contiguous_external_log(self, tmp_path, monkeypatch):
        """A log with a gap takes the per-event, seq-validated path, and
        both recoveries stop at the gap with the same error."""
        directory = tmp_path / "s"
        ingest(directory, config(), [])
        events = events_for("uniform", 900, seed=2)
        seqs = [s for s in range(1, 902) if s != 600]
        lines = b"".join(
            frame_record(ev.wal_payload(seq)) for seq, ev in zip(seqs, events)
        )
        (directory / "wal.jsonl").write_bytes(lines)
        got = assert_same_recovery(directory, monkeypatch)
        assert got[0] == "error" and "non-contiguous seq 601" in got[2]

    def test_repeated_seq_external_log(self, tmp_path, monkeypatch):
        directory = tmp_path / "s"
        ingest(directory, config(), [])
        events = events_for("clustered", 700, seed=9)
        seqs = list(range(1, 301)) + list(range(300, 700))
        (directory / "wal.jsonl").write_bytes(
            b"".join(
                frame_record(ev.wal_payload(seq))
                for seq, ev in zip(seqs, events)
            )
        )
        got = assert_same_recovery(directory, monkeypatch)
        assert got[0] == "error" and "non-contiguous seq 300" in got[2]

    @pytest.mark.parametrize(
        "payload",
        ['[{seq},"jump",3]', '[{seq},"join",-1,0.0,0.0,1.0]', '[{seq},"join",4]'],
    )
    def test_malformed_record_before_the_snapshot_still_raises(
        self, tmp_path, monkeypatch, payload
    ):
        """A checksummed record the snapshot already covers is still
        decoded into an event, so a malformed one fails ``open``."""
        directory = tmp_path / "s"
        ingest(directory, config(snapshot_every=1500, segment_bytes=1 << 22),
               events_for("uniform", 2000, seed=1))
        (seg,) = list_segments(directory)
        lines = seg.path.read_bytes().splitlines(keepends=True)
        seq = 1200  # below the snapshot at 1500, in the scanned segment
        lines[seq - 1] = frame_record(payload.format(seq=seq))
        seg.path.write_bytes(b"".join(lines))
        got = assert_same_recovery(directory, monkeypatch)
        assert got[0] == "error" and got[1] is ValueError

    def test_empty_stream(self, tmp_path, monkeypatch):
        ingest(tmp_path / "s", config(), [])
        got = assert_same_recovery(tmp_path / "s", monkeypatch)
        assert got[0] == "ok" and got[3] == 0

    def test_resumed_ingest_matches_uninterrupted(self, tmp_path):
        """After a recovery that leaves the mirror in place, more bulk
        batches still land on the uninterrupted run's state."""
        events = events_for("mobile", 5000, seed=13)
        cfg = config(snapshot_every=1800)
        ingest(tmp_path / "s", cfg, events[:3000], abort=True)
        eng = DurableStreamEngine.open(tmp_path / "s")
        assert eng.engine._np is not None
        eng.apply_batch(events[eng.engine.seq :])
        eng.close()
        full = StreamEngine(cfg)
        full.apply_many(events)
        assert eng.engine.state_digest() == full.state_digest()
