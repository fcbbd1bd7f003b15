"""P6: durable streaming engine — ingest throughput and recovery time.

The acceptance bar from the streaming-engine design: sustained ingest of
**>= 1e5 applied updates/sec on a 1e5-node universe with snapshotting
enabled**, WAL framing included (length + SHA-256 per record), plus a
report of recovery wall time for the log the ingest run produced.

Workload: 3e5 membership events (50/20/30 join/leave/move mix, uniform
positions over a 1200-unit square, radii in [0.2, 1.0] of r_max) applied
through :meth:`DurableStreamEngine.apply_batch` — the WAL path the
`repro stream ingest` CLI and the serving lane use. Snapshots fire at
the 150k cadence, so the measured window pays for two full-state
snapshot serializations on top of per-record framing.

Each measurement takes best-of-N rounds — these are capacity numbers,
and the container's scheduling noise is on the order of the effect
otherwise (the same defense the serving benchmarks use). Event
generation happens once, outside the timed region.

Recovery is timed once against the final stream directory: seek to the
segment holding ``snapshot.seq + 1``, load the newest snapshot, scan +
verify only the tail frames, bulk-replay them. The wall time lands in
``extra_info`` next to the ingest rate.

The second benchmark asserts the *bounded recovery* property the
segmented log buys: with the snapshot cadence fixed, recovery after a
~10x longer stream must cost at most 1.5x the short stream's recovery
(pre-segmentation, a full-log scan made it ~10x).
"""

from __future__ import annotations

import time

import pytest

from repro.stream import (
    DurableStreamEngine,
    StreamConfig,
    random_stream_events,
)

N_EVENTS = 300_000
CAPACITY = 100_000
SIDE = 1200.0
R_MAX = 1.0

FLOOR_EVENTS_PER_SEC = 1e5
ROUNDS = 4


def _config() -> StreamConfig:
    return StreamConfig(
        capacity=CAPACITY,
        r_max=R_MAX,
        snapshot_every=150_000,
        fsync_every=4096,
        fsync=False,  # measure framing + buffered appends, not the disk
    )


@pytest.fixture(scope="module")
def event_stream():
    return random_stream_events(
        N_EVENTS,
        capacity=CAPACITY,
        side=SIDE,
        r_max=R_MAX,
        seed=0,
        family="uniform",
    )


@pytest.mark.benchmark(group="stream")
def test_durable_ingest_sustains_throughput_floor(
    benchmark, event_stream, tmp_path
):
    def measure():
        best = 0.0
        for round_no in range(ROUNDS):
            directory = tmp_path / f"round-{round_no}"
            engine = DurableStreamEngine.create(directory, _config())
            started = time.perf_counter()
            applied = engine.apply_batch(event_stream)
            wall = time.perf_counter() - started
            engine.close()
            assert applied == N_EVENTS
            snapshots = list(directory.glob("snapshot-*.json"))
            assert snapshots, "snapshotting must fire inside the window"
            best = max(best, applied / wall)

        # recovery of the last round's directory: full scan (every frame
        # re-verified), snapshot load, bulk tail replay
        started = time.perf_counter()
        recovered = DurableStreamEngine.open(directory)
        recovery_wall = time.perf_counter() - started
        info = recovered.recovery
        assert recovered.last_seq == N_EVENTS
        assert info.snapshot_seq > 0, "recovery must start from a snapshot"
        assert not info.torn_tail
        recovered.close()
        return best, recovery_wall

    rate, recovery_wall = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(rate)
    benchmark.extra_info["recovery_wall_s"] = round(recovery_wall, 3)
    benchmark.extra_info["wal_records"] = N_EVENTS
    assert rate >= FLOOR_EVENTS_PER_SEC, (
        f"durable ingest {rate:,.0f} events/sec under the "
        f"{FLOOR_EVENTS_PER_SEC:,.0f}/sec floor "
        f"(capacity {CAPACITY:,}, snapshotting enabled; "
        f"recovery {recovery_wall:.2f}s)"
    )


@pytest.mark.benchmark(group="stream")
def test_recovery_stays_flat_as_the_stream_grows(benchmark, tmp_path):
    """Recovery cost tracks data-since-last-snapshot, not stream length.

    Both directories end with the same-size replay tail (10k events past
    their last snapshot) under the same 20k cadence; the long stream is
    ~10x the short one. A recovery that scanned the whole log — the
    pre-segmentation behaviour — would pay ~10x here; seeking to the
    snapshot's segment must keep the ratio near 1 (gate: <= 1.5, with a
    best-of-rounds measurement to shed scheduler noise).
    """
    cadence = 20_000
    short_n = 30_000   # snapshots at 20k; 10k-event tail
    long_n = 290_000   # snapshots at ...280k; 10k-event tail
    # a small universe, so both directories snapshot a live state of
    # comparable size. The churn does not quite saturate it within the
    # short stream (seed 1: 8 858 of 10 000 nodes active after the
    # short recovery, all 10 000 after the long one), so the ratio also
    # carries that state-size term next to the log-scan term; both
    # recovered counts are in the failure message below
    capacity = 10_000
    cfg = StreamConfig(
        capacity=capacity,
        r_max=R_MAX,
        snapshot_every=cadence,
        fsync_every=4096,
        fsync=False,
        # segment granularity well under the snapshot cadence (~4.7k
        # records per 256 KiB segment), so seeking to the snapshot's
        # segment wastes at most one segment of pre-snapshot scan
        segment_bytes=256 * 1024,
        compact="manual",  # keep the full log: the point is *not* reading it
    )
    events = random_stream_events(
        long_n,
        capacity=capacity,
        side=SIDE,
        r_max=R_MAX,
        seed=1,
        family="uniform",
    )

    def build(directory, n):
        engine = DurableStreamEngine.create(directory, cfg)
        engine.apply_batch(events[:n])
        engine.close()

    def time_recovery(directory):
        best = float("inf")
        info = None
        for _ in range(ROUNDS):
            started = time.perf_counter()
            recovered = DurableStreamEngine.open(directory)
            best = min(best, time.perf_counter() - started)
            info = recovered.recovery
            n_active = recovered.engine.n_active
            recovered.close()
        return best, info, n_active

    def measure():
        build(tmp_path / "short", short_n)
        build(tmp_path / "long", long_n)
        return time_recovery(tmp_path / "short"), time_recovery(tmp_path / "long")

    (short_wall, short_info, short_active), (long_wall, long_info, long_active) = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    # both recoveries replay the same-size tail from their snapshot
    assert short_info.snapshot_seq == short_n - 10_000
    assert long_info.snapshot_seq == long_n - 10_000
    assert (short_info.replayed_to - short_info.replayed_from) == (
        long_info.replayed_to - long_info.replayed_from
    )
    # and scan a comparable number of bytes — the structural reason the
    # wall-clock ratio below can hold at any stream length
    assert long_info.bytes_scanned <= 2 * short_info.bytes_scanned
    ratio = long_wall / short_wall
    benchmark.extra_info["short_recovery_s"] = round(short_wall, 4)
    benchmark.extra_info["long_recovery_s"] = round(long_wall, 4)
    benchmark.extra_info["recovery_ratio_10x_stream"] = round(ratio, 3)
    benchmark.extra_info["short_bytes_scanned"] = short_info.bytes_scanned
    benchmark.extra_info["long_bytes_scanned"] = long_info.bytes_scanned
    benchmark.extra_info["short_active_nodes"] = short_active
    benchmark.extra_info["long_active_nodes"] = long_active
    assert ratio <= 1.5, (
        f"recovery of a ~10x stream cost {ratio:.2f}x "
        f"({long_wall:.3f}s vs {short_wall:.3f}s; {long_active} vs "
        f"{short_active} active nodes recovered) — bounded recovery "
        f"requires <= 1.5x at fixed snapshot cadence"
    )
