"""Segmented log: rotation edges, compaction rules, migration, LogStore API."""

import json
import os

import pytest

from repro.stream import (
    DurableStreamEngine,
    LogStore,
    SegmentedWal,
    StreamConfig,
    StreamEngine,
    WalCorruption,
    WriteAheadLog,
    latest_snapshot,
    list_segments,
    random_stream_events,
    scan_store,
    store_bytes,
    verify_stream_dir,
)
from repro.stream.wal import frame_record, scan_wal, segment_name


def payloads(lo, hi):
    """Payload strings for seqs lo..hi inclusive (dict form, WAL-agnostic)."""
    return [json.dumps({"seq": s, "pad": "x" * 10}) for s in range(lo, hi + 1)]


def config(**overrides) -> StreamConfig:
    base = dict(
        capacity=128,
        r_max=1.0,
        snapshot_every=60,
        fsync_every=8,
        fsync=False,
        segment_bytes=1024,
        compact="manual",
    )
    base.update(overrides)
    return StreamConfig(**base)


def workload(n=300, *, seed=0, capacity=128):
    return random_stream_events(
        n, capacity=capacity, side=6.0, r_max=1.0, seed=seed, family="uniform"
    )


class TestRotation:
    def test_appends_rotate_at_segment_bytes(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 40))
        wal.close()
        segs = list_segments(tmp_path)
        assert len(segs) > 1
        # filenames declare each segment's first seq, in order
        firsts = [s.first_seq for s in segs]
        assert firsts == sorted(firsts) and firsts[0] == 1
        # every sealed segment is within the size budget
        for seg in segs[:-1]:
            assert seg.path.stat().st_size <= 256
        scan = scan_store(tmp_path)
        assert [r["seq"] for r in scan.records] == list(range(1, 41))

    def test_frame_exactly_at_segment_bytes_fills_segment(self, tmp_path):
        one = frame_record(payloads(1, 1)[0])
        # segment sized to exactly two frames: both land in segment 1,
        # the third rotates (a frame that *fits exactly* must not rotate)
        wal = SegmentedWal(tmp_path, segment_bytes=2 * len(one), fsync=False)
        wal.append(payloads(1, 3))
        wal.close()
        segs = list_segments(tmp_path)
        assert [s.first_seq for s in segs] == [1, 3]
        assert segs[0].path.stat().st_size == 2 * len(one)

    def test_oversized_frame_gets_its_own_segment(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=8, fsync=False)
        wal.append(payloads(1, 3))  # every frame > 8 bytes
        wal.close()
        assert [s.first_seq for s in list_segments(tmp_path)] == [1, 2, 3]
        assert scan_store(tmp_path).last_seq == 3

    def test_rotation_between_append_batches(self, tmp_path):
        one = len(frame_record(payloads(1, 1)[0]))
        wal = SegmentedWal(tmp_path, segment_bytes=3 * one, fsync=False)
        wal.append(payloads(1, 2))  # fills 2/3 of segment 1
        wal.append(payloads(3, 5))  # 3 won't fit as a batch: 3 in seg 1,
        wal.append(payloads(6, 6))  # then 4.. in seg 2
        wal.close()
        assert [s.first_seq for s in list_segments(tmp_path)] == [1, 4]
        scan = scan_store(tmp_path)
        assert [r["seq"] for r in scan.records] == [1, 2, 3, 4, 5, 6]

    def test_sealed_segments_are_flushed_before_rotation(self, tmp_path):
        # fsync_every huge: nothing would hit the disk except that sealing
        # flushes — so after abort() (buffer dropped) every sealed segment
        # must still be complete on disk
        wal = SegmentedWal(
            tmp_path, segment_bytes=256, fsync_every=10_000, fsync=False
        )
        wal.append(payloads(1, 40))
        wal.abort()
        scan = scan_store(tmp_path)
        assert not scan.torn_tail
        sealed = list_segments(tmp_path)[:-1]
        assert sealed  # rotation happened
        last_sealed_first = sealed[-1].first_seq
        assert scan.last_seq >= last_sealed_first - 1

    def test_reopen_adopts_partial_newest_segment(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=4096, fsync=False)
        wal.append(payloads(1, 3))
        wal.close()
        again = SegmentedWal(
            tmp_path, segment_bytes=4096, next_seq=4, fsync=False
        )
        assert again.active_path == list_segments(tmp_path)[-1].path
        again.append(payloads(4, 5))
        again.close()
        assert len(list_segments(tmp_path)) == 1
        assert scan_store(tmp_path).last_seq == 5


class TestStoreScan:
    def test_seek_skips_segments_below_from_seq(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 60))
        wal.close()
        total = len(list_segments(tmp_path))
        assert total > 3
        scan = scan_store(tmp_path, from_seq=55)
        assert len(scan.scanned) < total
        assert scan.records[0]["seq"] <= 55 <= scan.records[-1]["seq"]
        assert scan.scanned_bytes < store_bytes(tmp_path)

    def test_torn_tail_only_tolerated_on_newest(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 40))
        wal.close()
        segs = list_segments(tmp_path)
        # torn newest: tolerated and reported
        os.truncate(segs[-1].path, segs[-1].path.stat().st_size - 5)
        scan = scan_store(tmp_path)
        assert scan.torn_tail and scan.tail_path == segs[-1].path
        # torn sealed interior: corruption
        os.truncate(segs[0].path, segs[0].path.stat().st_size - 5)
        with pytest.raises(WalCorruption, match="torn frame"):
            scan_store(tmp_path)

    def test_corruption_in_sealed_segment_refuses_recovery(self, tmp_path):
        durable = DurableStreamEngine.create(
            tmp_path / "s", config(segment_bytes=512, snapshot_every=0)
        )
        durable.apply_batch(workload(200))
        durable.close()
        segs = list_segments(tmp_path / "s")
        assert len(segs) > 2
        mid = segs[len(segs) // 2].path
        data = bytearray(mid.read_bytes())
        data[len(data) // 2] ^= 0x01
        mid.write_bytes(bytes(data))
        with pytest.raises(WalCorruption):
            DurableStreamEngine.open(tmp_path / "s")
        with pytest.raises(WalCorruption):
            verify_stream_dir(tmp_path / "s")

    def test_missing_interior_segment_is_corruption(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 40))
        wal.close()
        segs = list_segments(tmp_path)
        segs[1].path.unlink()
        with pytest.raises(WalCorruption, match="previous segment ended"):
            scan_store(tmp_path)

    def test_filename_contradicting_first_record_is_corruption(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 40))
        wal.close()
        segs = list_segments(tmp_path)
        segs[1].path.rename(tmp_path / segment_name(segs[1].first_seq + 1))
        with pytest.raises(WalCorruption, match="expected"):
            scan_store(tmp_path)

    def test_empty_store_scans_empty(self, tmp_path):
        scan = scan_store(tmp_path)
        assert scan.records == [] and not scan.torn_tail
        assert scan.segments == [] and scan.scanned_bytes == 0

    def test_zero_byte_wal_file_is_empty_not_torn(self, tmp_path):
        # regression guard: an empty file has no partial frame, so it must
        # scan as empty — not as a torn tail with hint logic
        empty = tmp_path / "wal.jsonl"
        empty.touch()
        scan = scan_wal(empty)
        assert scan.records == []
        assert not scan.torn_tail and scan.torn_bytes == 0
        assert scan.valid_bytes == 0 and scan.last_seq == 0


class TestCompaction:
    def ingest(self, d, n=300, **cfg):
        durable = DurableStreamEngine.create(
            d, config(segment_bytes=512, **cfg)
        )
        durable.apply_batch(workload(n))
        return durable

    def test_manual_compaction_deletes_only_covered_segments(self, tmp_path):
        durable = self.ingest(tmp_path / "s")  # snapshots at 60..300
        snap_seq = latest_snapshot(tmp_path / "s")[0]
        before = list_segments(tmp_path / "s")
        removed = durable.compact()
        durable.close()
        after = list_segments(tmp_path / "s")
        assert len(after) == len(before) - len(removed)
        # the segment holding snapshot.seq+1 must survive: the oldest
        # surviving segment starts at or before it
        assert after[0].first_seq <= snap_seq + 1
        # and compaction was maximal: the next segment would be past cover
        if len(after) > 1:
            assert after[1].first_seq > snap_seq + 1

    def test_compaction_never_deletes_segment_holding_next_seq(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=256, fsync=False)
        wal.append(payloads(1, 60))
        segs = list_segments(tmp_path)
        # cover an interior seq: the segment containing cover+1 survives
        cover = segs[len(segs) // 2].first_seq + 1
        wal.compact(cover)
        wal.close()
        remaining = list_segments(tmp_path)
        holder = [s for s in remaining if s.first_seq <= cover + 1]
        assert holder, "segment containing cover+1 was deleted"
        assert scan_store(tmp_path, from_seq=cover + 1).last_seq == 60

    def test_auto_compaction_after_snapshot(self, tmp_path):
        durable = self.ingest(tmp_path / "s", compact="auto")
        try:
            # every snapshot_now (incl. the periodic ones) compacts: only
            # segments past the newest snapshot survive
            snap_seq = latest_snapshot(tmp_path / "s")[0]
            for seg in list_segments(tmp_path / "s")[1:]:
                assert seg.first_seq <= snap_seq + 1 or seg.first_seq > snap_seq
            assert list_segments(tmp_path / "s")[0].first_seq <= snap_seq + 1
            # recovery still works bit-identically after deletions
            digest = durable.engine.state_digest()
        finally:
            durable.close()
        recovered = DurableStreamEngine.open(tmp_path / "s")
        assert recovered.engine.state_digest() == digest
        assert recovered.recovery.segments_scanned <= recovered.recovery.segments
        recovered.close()
        assert verify_stream_dir(tmp_path / "s").ok

    def test_interrupted_compaction_resumes_idempotently(self, tmp_path):
        durable = self.ingest(tmp_path / "s")
        durable.snapshot_now()
        full = durable.engine.state_digest()
        would_remove = len(list_segments(tmp_path / "s")) - 1
        removed = durable.compact(max_deletes=2)
        assert len(removed) == 2
        durable.close()

        recovered = DurableStreamEngine.open(tmp_path / "s")
        assert recovered.engine.state_digest() == full
        rest = recovered.compact()
        assert len(rest) == would_remove - 2
        assert recovered.compact() == []  # idempotent: nothing left
        assert len(list_segments(tmp_path / "s")) == 1
        recovered.close()
        assert verify_stream_dir(tmp_path / "s").ok

    def test_recovery_gap_raises_when_uncovered_segment_missing(self, tmp_path):
        # 290 events, cadence 60: snapshot covers 240, tail is 241..290
        durable = self.ingest(tmp_path / "s", n=290)
        durable.close()
        snap_seq = latest_snapshot(tmp_path / "s")[0]
        assert snap_seq == 240
        # over-zealous external deletion: remove every segment but the
        # newest, so the log now starts past snap_seq+1 — a hole that is
        # detectable precisely because compaction never makes one
        segs = list_segments(tmp_path / "s")
        assert segs[-1].first_seq > snap_seq + 1
        for seg in segs[:-1]:
            seg.path.unlink()
        with pytest.raises(WalCorruption, match="missing|gone"):
            DurableStreamEngine.open(tmp_path / "s")


class TestLegacyMigration:
    def legacy_dir(self, d, n=150):
        """Build a PR 6-style single-file stream directory by hand."""
        d.mkdir(parents=True)
        cfg = config(segment_bytes=1 << 30)
        (d / "meta.json").write_text(
            json.dumps({"format": 1, "config": cfg.to_jsonable()}) + "\n"
        )
        events = workload(n)
        engine = StreamEngine(cfg)
        wal = WriteAheadLog(d / "wal.jsonl", fsync=False)
        for seq, ev in enumerate(events, start=1):
            engine.apply(ev, collect=False)
            wal.append_payload(ev.wal_payload(seq))
        wal.close()
        return events, engine.state_digest()

    def test_single_file_directory_recovers(self, tmp_path):
        events, digest = self.legacy_dir(tmp_path / "s")
        recovered = DurableStreamEngine.open(tmp_path / "s")
        assert recovered.engine.seq == len(events)
        assert recovered.engine.state_digest() == digest
        recovered.close()
        assert verify_stream_dir(tmp_path / "s").ok

    def test_writes_after_migration_rotate_into_segments(self, tmp_path):
        events, _ = self.legacy_dir(tmp_path / "s")
        more = workload(200)[len(events):]
        recovered = DurableStreamEngine.open(tmp_path / "s")
        recovered.apply_batch(more)
        recovered.close()
        segs = list_segments(tmp_path / "s")
        # legacy file untouched, new records in a wal-<seq> segment
        assert segs[0].legacy and len(segs) == 2
        assert segs[1].first_seq == len(events) + 1
        again = DurableStreamEngine.open(tmp_path / "s")
        assert again.engine.seq == 200
        again.close()
        assert verify_stream_dir(tmp_path / "s").ok


class TestPublicStorageApi:
    def test_logstore_protocol_is_runtime_checkable(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=1024, fsync=False)
        assert isinstance(wal, LogStore)
        wal.close()
        assert not isinstance(object(), LogStore)

    def test_api_facade_exports_storage_names(self):
        from repro import api

        for name in ("SegmentedWal", "LogStore", "RecoveryInfo",
                     "StreamConfig", "WalCorruption"):
            assert name in api.__all__
            assert getattr(api, name) is not None

    def test_seal_makes_next_append_rotate(self, tmp_path):
        wal = SegmentedWal(tmp_path, segment_bytes=1 << 20, fsync=False)
        wal.append(payloads(1, 5))
        wal.seal()
        wal.append(payloads(6, 8))
        wal.close()
        assert [s.first_seq for s in list_segments(tmp_path)] == [1, 6]


class TestStreamConfigJson:
    def test_round_trip(self):
        cfg = StreamConfig(
            capacity=64, r_max=2.0, segment_bytes=4096, compact="manual"
        )
        assert StreamConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_tolerates_unknown_and_missing_fields(self):
        cfg = StreamConfig.from_json(
            '{"capacity": 8, "r_max": 1.0, "future_knob": true}'
        )
        assert cfg.capacity == 8
        assert cfg.segment_bytes == StreamConfig(capacity=1, r_max=1.0).segment_bytes

    def test_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError):
            StreamConfig.from_json("[1, 2]")

    def test_validation(self):
        with pytest.raises(ValueError, match="segment_bytes"):
            StreamConfig(capacity=8, r_max=1.0, segment_bytes=0)
        with pytest.raises(ValueError, match="compact"):
            StreamConfig(capacity=8, r_max=1.0, compact="aggressive")
        with pytest.raises(TypeError):
            StreamConfig(8, 1.0)  # keyword-only
