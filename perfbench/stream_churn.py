"""stream_churn: the durable write path beside the read path.

A round streams each event family (uniform, clustered) into a fresh
``DurableStreamEngine`` (capacity 10^5, fsync off) through ``apply_batch``
in fixed-size batches. After every batch it does region-window reads and
point reads at a fixed read:write ratio; snapshots, segment rotation and
compaction fire inside the window. The round ends with ``close()`` and a
timed ``DurableStreamEngine.open`` that replays a non-empty log tail.
"""

from __future__ import annotations

import os
import random
import shutil
import time

import numpy as np

from harness import (
    OUT_DIR,
    Measured,
    Traced,
    best_of,
    common_layers,
    layer_span,
    median,
    percentile,
    run_passes,
    trace_passes,
)
from repro.stream import DurableStreamEngine, StreamConfig, StreamEngine
from repro.stream.events import random_stream_events
from repro.stream.snapshot import newest_snapshot_seq
from repro.stream.wal import frame_record, scan_store

CAPACITY = 100_000
R_MAX = 1.0
SIDE = 80.0
FAMILIES = ("uniform", "clustered")
EVENTS = 20_000
BATCH = 500
#: reads after every batch of BATCH events
REGION_READS = 40
POINT_READS = 16
WINDOW = 4.0
#: the last snapshot lands 2000 events before the end, so recovery always
#: replays a log tail
SNAPSHOT_EVERY = 6_000
SEGMENT_BYTES = 256 * 1024
CONFIG = StreamConfig(
    capacity=CAPACITY,
    r_max=R_MAX,
    snapshot_every=SNAPSHOT_EVERY,
    fsync=False,
    segment_bytes=SEGMENT_BYTES,
)


def _read_plan(events, rng: random.Random) -> list[tuple[list, list]]:
    """Per batch: region windows and point-read nodes that are alive after
    that batch (membership simulated from the events).

    The windows sweep a fixed grid that tiles the square every few batches,
    so every seed reads the same regions and the read tail is set by the
    data's densest areas rather than by where random windows happened to
    land.
    """
    per_row = int(SIDE // WINDOW)
    cells = per_row * per_row
    alive: set[int] = set()
    plan = []
    for b, start in enumerate(range(0, len(events), BATCH)):
        for ev in events[start : start + BATCH]:
            if ev.kind == "join":
                alive.add(ev.node)
            elif ev.kind == "leave":
                alive.discard(ev.node)
        regions = []
        for k in range(REGION_READS):
            ix, iy = divmod((b * REGION_READS + k) % cells, per_row)
            x, y = ix * WINDOW, iy * WINDOW
            regions.append((x, y, x + WINDOW, y + WINDOW))
        plan.append((regions, rng.sample(sorted(alive), POINT_READS)))
    return plan


def _directory(tag: str):
    path = OUT_DIR / f"stream-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def _stream(events, plan, directory) -> dict:
    """One family through a fresh durable engine; returns timings and the
    check material."""
    with layer_span("stream", "create"):
        eng = DurableStreamEngine.create(directory, CONFIG)
    apply_ms = []
    applied = 0
    region_ms, point_us = [], []
    for b, (regions, points) in enumerate(plan):
        batch = events[b * BATCH : (b + 1) * BATCH]
        t0 = time.perf_counter()
        with layer_span("stream", "apply"):
            applied += eng.apply_batch(batch)
        apply_ms.append((time.perf_counter() - t0) * 1e3)
        engine = eng.engine
        for region in regions:
            t0 = time.perf_counter()
            with layer_span("stream", "read_region"):
                engine.region_read(*region)
            region_ms.append((time.perf_counter() - t0) * 1e3)
        for node in points:
            t0 = time.perf_counter()
            with layer_span("stream", "read_point"):
                engine.interference_of(node)
            point_us.append((time.perf_counter() - t0) * 1e6)
    live = eng.engine
    with layer_span("stream", "close"):
        eng.close()
    t0 = time.perf_counter()
    with layer_span("stream", "recover"):
        recovered = DurableStreamEngine.open(directory)
    recovery_s = time.perf_counter() - t0
    recovered.close()
    with layer_span("stream", "digest"):
        digests = (live.state_digest(), recovered.engine.state_digest())
    return {
        "applied": applied,
        "apply_ms": apply_ms,
        "region_ms": region_ms,
        "point_us": point_us,
        "recovery_s": recovery_s,
        "recovery": recovered.recovery,
        "digests": digests,
        "live": live,
    }


def _round(state: dict) -> dict:
    out = {}
    for family in FAMILIES:
        directory = _directory(family)
        out[family] = _stream(state["events"][family], state["plans"][family], directory)
        shutil.rmtree(directory, ignore_errors=True)
        # keep only the newest live engine (for the recount check)
        state["last_live"][family] = out[family].pop("live")
    return out


def setup(seed: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(seed)
    events, plans = {}, {}
    for k, family in enumerate(FAMILIES):
        events[family] = random_stream_events(
            EVENTS, capacity=CAPACITY, side=SIDE, r_max=R_MAX,
            seed=seed * 10 + k, family=family,
        )
        plans[family] = _read_plan(events[family], rng)
    # warm-up: one short stream through create/apply/read/close/open
    warm = {f: events[f][: 4 * BATCH] for f in FAMILIES}
    for family in FAMILIES:
        directory = _directory("warm")
        _stream(warm[family], plans[family][:4], directory)
        shutil.rmtree(directory, ignore_errors=True)
    return {"seed": seed, "events": events, "plans": plans, "rounds": [], "last_live": {}}


def _reads_ms(round_: dict) -> list[float]:
    """Every read of one round, in plan order (the same slots each round)."""
    out = []
    for family in FAMILIES:
        st = round_[family]
        out += st["region_ms"] + [us / 1e3 for us in st["point_us"]]
    return out


def measure(state: dict, seconds: float) -> Measured:
    rounds, _ = run_passes(lambda: _round(state), seconds)
    state["rounds"] = rounds
    # each batch apply, recovery and read at its fastest round
    apply_ms = best_of([[ms for f in FAMILIES for ms in r[f]["apply_ms"]] for r in rounds])
    recovery = best_of([[r[f]["recovery_s"] for f in FAMILIES] for r in rounds])
    reads = best_of([_reads_ms(r) for r in rounds])
    metrics = {
        "throughput": len(FAMILIES) * EVENTS / (sum(apply_ms) / 1e3),
        "p50_ms": median(reads),
        "p99_ms": percentile(reads, 99),
        "unit_s": sum(recovery) / len(recovery),
    }
    n_events = sum(r[f]["applied"] for r in rounds for f in FAMILIES)
    return Measured(
        attempted=n_events + len(reads) * len(rounds) + len(rounds) * len(FAMILIES),
        failed=0,
        metrics=metrics,
        samples={"reads": len(reads), "rounds": len(rounds)},
        named={
            "stream.events_per_s": metrics["throughput"],
            "stream.read_p50_ms": metrics["p50_ms"],
            "stream.read_p99_ms": metrics["p99_ms"],
            "stream.recovery_s": metrics["unit_s"],
        },
    )


def _recovery_probe(state: dict) -> dict:
    """Log scan and recovery of one full stream per family, outside the
    traced rounds: ``scan_store`` timed on its own, then ``open``."""
    scan_s, scanned, replayed, segments = [], [], [], []
    for family in FAMILIES:
        directory = _directory("probe")
        eng = DurableStreamEngine.create(directory, CONFIG)
        eng.apply_batch(state["events"][family])
        eng.close()
        t0 = time.perf_counter()
        scan_store(directory, from_seq=newest_snapshot_seq(directory) + 1)
        scan_s.append(time.perf_counter() - t0)
        reopened = DurableStreamEngine.open(directory)
        reopened.close()
        rec = reopened.recovery
        scanned.append(rec.bytes_scanned)
        replayed.append(rec.replayed_to - rec.replayed_from + 1 if rec.replayed_from else 0)
        segments.append(rec.segments)
        shutil.rmtree(directory, ignore_errors=True)
    n = len(FAMILIES)
    return {
        "stream.recover_scan_s": sum(scan_s) / n,
        "stream.recover_bytes_scanned": sum(scanned) / n,
        "stream.replayed": sum(replayed) / n,
        "stream.segments": sum(segments) / n,
    }


def _engine_chunks(events) -> list:
    """The chunks ``DurableStreamEngine.apply_batch`` hands to
    ``StreamEngine.apply_many`` when fed BATCH-event batches: at most
    ``min(4096, fsync_every)`` events, cut at the snapshot cadence."""
    chunk_max = max(1, min(4096, CONFIG.fsync_every))
    every = CONFIG.snapshot_every
    chunks, since = [], 0
    for start in range(0, len(events), BATCH):
        batch = events[start : start + BATCH]
        i = 0
        while i < len(batch):
            take = min(chunk_max, max(1, every - since)) if every else chunk_max
            chunks.append(batch[i : i + take])
            i += len(chunks[-1])
            since += len(chunks[-1])
            if every and since >= every:
                since = 0
    return chunks


def _codec_probe(state: dict) -> dict:
    """Per-event cost of the WAL payload encoding, the framing and the
    in-memory engine, on the workload's own events. The in-memory apply
    takes the durable engine's path (``apply_many`` on the same chunks), so
    durable minus in-memory is the cost of the log and the snapshots."""
    encode_s = frame_s = engine_s = 0.0
    wal_bytes = 0
    n = 0
    for family in FAMILIES:
        events = state["events"][family]
        n += len(events)
        chunks = _engine_chunks(events)
        engine = StreamEngine(CONFIG)
        t0 = time.perf_counter()
        payloads = [ev.wal_payload(seq) for seq, ev in enumerate(events, 1)]
        t1 = time.perf_counter()
        frames = [frame_record(p) for p in payloads]
        t2 = time.perf_counter()
        for chunk in chunks:
            engine.apply_many(chunk)
        t3 = time.perf_counter()
        encode_s += t1 - t0
        frame_s += t2 - t1
        engine_s += t3 - t2
        wal_bytes += sum(len(f) for f in frames)
    return {
        "stream.encode_us_per_event": encode_s / n * 1e6,
        "stream.frame_us_per_event": frame_s / n * 1e6,
        "stream.engine_apply_us_per_event": engine_s / n * 1e6,
        "stream.wal_bytes_per_event": wal_bytes / n,
    }


def trace(state: dict, seconds: float) -> Traced:
    run = trace_passes(lambda: _round(state), seconds)
    state["rounds"] = run.results
    attr, layers = common_layers(run)
    by_name = attr["by_name"]
    n_events = sum(r[f]["applied"] for r in run.results for f in FAMILIES)
    layers["stream.durable_apply_us_per_event"] = (
        by_name.get("bench.stream.apply", 0.0) * run.passes / n_events * 1e6
    )
    # the engine's own snapshot spans (snapshots fire inside apply_batch)
    snapshots = [sp for sp, _ in run.snapshot.iter_spans() if sp.name == "stream.snapshot"]
    layers["stream.snapshot_s"] = sum(sp.duration_s for sp in snapshots) / run.passes
    layers["stream.snapshots"] = len(snapshots) / run.passes
    streams = [r[f] for r in run.results for f in FAMILIES]
    layers["stream.read_region_ms"] = median(ms for st in streams for ms in st["region_ms"])
    layers["stream.read_point_us"] = median(us for st in streams for us in st["point_us"])
    layers.update(_codec_probe(state))
    layers.update(_recovery_probe(state))
    return Traced(
        attempted=n_events + sum(len(_reads_ms(r)) + len(FAMILIES) for r in run.results),
        failed=0,
        layers=layers,
        snapshot=run.snapshot,
    )


def check(state: dict) -> list[tuple[str, bool]]:
    checks = []
    rounds = state["rounds"]
    for k, r in enumerate(rounds):
        for family in FAMILIES:
            st = r[family]
            live_digest, recovered_digest = st["digests"]
            checks.append((f"applied:{family}{k}", st["applied"] == EVENTS))
            checks.append((f"tail_replayed:{family}{k}", st["recovery"].replayed_from > 0))
            checks.append((f"recovered_digest:{family}{k}", live_digest == recovered_digest))
    for family, live in state["last_live"].items():
        checks.append(
            (f"recount:{family}",
             np.array_equal(live.recompute_counts(), live.node_interference()))
        )
    return checks


def teardown(state: dict) -> None:
    for tag in (*FAMILIES, "warm", "probe"):
        shutil.rmtree(_directory(tag), ignore_errors=True)
    state.clear()
