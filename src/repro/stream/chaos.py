"""Chaos harness: kill the engine mid-ingest, recover, prove exact state.

The robustness claim made executable. Each run:

1. generates a seeded event stream (a pure function of ``(seed, run)``,
   so the reference state is recomputable from the seed alone);
2. picks a **kill point uniformly in log *bytes*** via
   :meth:`repro.faults.FaultPlan.chaos_uniform` — byte-uniform means kill
   points land *inside* records, not just between them. Kill points are
   *logical* byte offsets into the concatenated log; the harness maps
   them onto the segmented on-disk layout (the chaos config uses a tiny
   ``segment_bytes`` so every run crosses many rotations);
3. ingests until the log reaches the kill point, then crashes the engine
   there — either in-process (``SegmentedWal.abort`` drops the userspace
   buffer, the SIGKILL-between-fsyncs signature) or as a real subprocess
   killed with ``SIGKILL``. The store is then truncated to the *exact*
   kill byte (truncating the containing segment and deleting every later
   one), so mid-record torn tails occur by construction;
4. recovers (snapshot + bounded tail replay) and checks the recovered
   state is **bit-identical** to a from-scratch replay of the surviving
   event prefix, and that recovered counts equal an independent
   vectorized recount (exact integer equality, no tolerance);
5. resumes ingest from the surviving seqno through the end of the stream
   and checks convergence to the full-stream reference state.

Beyond the uniform kill points, two *targeted* families aim the crash at
the windows segmentation introduced:

- ``target="rotation"`` — places the kill byte within ~120 bytes of a
  seal boundary (computed by simulating the rotation rule over the exact
  frame sizes), so crashes land just before, during, and just after a
  segment seal + fresh-segment open;
- ``target="compaction"`` — ingests cleanly, snapshots, then interrupts
  compaction partway (a seeded number of segment deletions), recovers,
  and asserts state exactness plus that a re-run compaction resumes
  idempotently (in-process only).

Any :class:`~repro.stream.wal.WalCorruption` during recovery is a
*detected* corruption; the harness never manufactures one, so in a suite
both divergences and detected corruptions must be zero.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.faults.plan import FaultPlan
from repro.stream.config import StreamConfig
from repro.stream.durable import DurableStreamEngine
from repro.stream.engine import StreamEngine
from repro.stream.events import EVENT_FAMILIES, random_stream_events
from repro.stream.wal import (
    WalCorruption,
    frame_record,
    list_segments,
    store_bytes,
)

__all__ = [
    "CHAOS_TARGETS",
    "ChaosRunResult",
    "chaos_run",
    "chaos_suite",
    "render_chaos_results",
]

#: kill-point families: byte-uniform, rotation-window, mid-compaction
CHAOS_TARGETS = ("uniform", "rotation", "compaction")


@dataclass(frozen=True, slots=True)
class ChaosRunResult:
    """Outcome of one kill/recover/resume cycle."""

    run: int
    family: str
    mode: str
    #: "abort" (buffered-loss crash) or "torn" (exact-byte mid-record crash)
    crash_kind: str
    kill_fraction: float
    target_bytes: int
    total_bytes: int
    #: seqno of the last event that survived the crash
    survived_seq: int
    n_events: int
    torn_tail: bool
    #: recovered state bit-identical to from-scratch replay of the prefix
    exact_prefix: bool
    #: recovered counts equal the independent vectorized recount
    counts_exact: bool
    #: after resuming the remaining events, state matches the full reference
    #: (for the compaction target: resumed compaction was also idempotent)
    resumed_exact: bool
    #: a WalCorruption was raised during recovery (harness never makes one)
    detected_corruption: bool
    recovered_digest: str
    reference_digest: str
    #: kill-point family (see CHAOS_TARGETS)
    target: str = "uniform"

    @property
    def ok(self) -> bool:
        return (
            self.exact_prefix
            and self.counts_exact
            and self.resumed_exact
            and not self.detected_corruption
        )

    def to_jsonable(self) -> dict:
        out = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__  # type: ignore[attr-defined]
        }
        out["ok"] = self.ok
        return out


def expected_wal_bytes(events) -> int:
    """Total log bytes a clean ingest of ``events`` produces, summed over
    all segments (the framing is deterministic, so this is exact)."""
    total = 0
    for seq, ev in enumerate(events, start=1):
        total += len(frame_record(ev.wal_payload(seq)))
    return total


def _seal_boundaries(events, segment_bytes: int) -> list[int]:
    """Logical byte offsets at which a clean ingest seals a segment
    (simulates the rotation rule over the exact frame sizes)."""
    boundaries: list[int] = []
    filled = 0
    total = 0
    opened = False
    for seq, ev in enumerate(events, start=1):
        flen = len(frame_record(ev.wal_payload(seq)))
        if opened and filled > 0 and filled + flen > segment_bytes:
            boundaries.append(total)
            filled = 0
        opened = True
        filled += flen
        total += flen
    return boundaries


def _truncate_store(directory: Path, target_bytes: int) -> None:
    """Make logical byte ``target_bytes`` the store's end of history:
    truncate the segment containing it, delete every later segment."""
    consumed = 0
    for seg in list_segments(directory):
        # the >= check runs first so zero-byte segments past the cut are
        # deleted too (a SIGKILL between segment-create and first flush
        # leaves one; keeping it would fake a torn *sealed* predecessor)
        if consumed >= target_bytes:
            seg.path.unlink()
            continue
        size = seg.path.stat().st_size
        if consumed + size <= target_bytes:
            consumed += size
        else:
            os.truncate(seg.path, target_bytes - consumed)
            consumed = target_bytes


def _chaos_config(capacity: int, r_max: float, n_events: int) -> StreamConfig:
    # frequent flushes so the on-disk log tracks ingest closely; a
    # snapshot cadence that makes most kill points land *after* at least
    # one snapshot (exercising snapshot + tail replay, not just replay);
    # a tiny segment so every run crosses many rotations; and manual
    # compaction so logical byte offsets stay stable through the run
    # (auto-compaction deleting segments mid-ingest would shift them)
    return StreamConfig(
        capacity=capacity,
        r_max=r_max,
        snapshot_every=max(32, n_events // 5),
        fsync_every=4,
        fsync=False,
        segment_bytes=2048,
        compact="manual",
    )


def ingest_command(
    directory: str | Path,
    *,
    n_events: int,
    seed: int,
    capacity: int,
    side: float,
    r_max: float,
    family: str,
    config: StreamConfig,
    rate: float | None = None,
    resume: bool = False,
) -> list[str]:
    """The ``repro stream ingest`` argv for a chaos child process."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "stream",
        "ingest",
        "--dir",
        str(directory),
        "--events",
        str(n_events),
        "--seed",
        str(seed),
        "--capacity",
        str(capacity),
        "--side",
        str(side),
        "--r-max",
        str(r_max),
        "--family",
        family,
        "--snapshot-every",
        str(config.snapshot_every),
        "--fsync-every",
        str(config.fsync_every),
        "--segment-bytes",
        str(config.segment_bytes),
        "--compact",
        config.compact,
    ]
    if not config.fsync:
        cmd.append("--no-fsync")
    if rate:
        cmd += ["--rate", str(rate)]
    if resume:
        cmd.append("--resume")
    return cmd


def chaos_run(
    directory: str | Path,
    run: int,
    *,
    seed: int = 0,
    n_events: int = 1000,
    capacity: int = 512,
    side: float = 12.0,
    r_max: float = 1.0,
    family: str | None = None,
    mode: str = "inprocess",
    rate: float | None = None,
    target: str = "uniform",
) -> ChaosRunResult:
    """One seeded kill/recover/resume cycle in ``directory`` (fresh dir)."""
    if mode not in ("inprocess", "subprocess"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    if target not in CHAOS_TARGETS:
        raise ValueError(f"unknown chaos target {target!r}")
    if target == "compaction" and mode != "inprocess":
        raise ValueError(
            "target='compaction' interrupts the compactor from inside the "
            "process; use mode='inprocess'"
        )
    directory = Path(directory)
    if family is None:
        family = EVENT_FAMILIES[run % len(EVENT_FAMILIES)]
    plan = FaultPlan(seed=seed)
    kill_fraction = plan.chaos_uniform(run, 0)
    # two crash signatures, both drawn from the plan: "abort" loses the
    # userspace buffer (tail ends on a record boundary, like a SIGKILL
    # between flushes); "torn" lands the crash on the exact chosen byte,
    # splitting a frame mid-record whenever the byte falls inside one
    crash_kind = "abort" if plan.chaos_uniform(run, 1) < 0.5 else "torn"

    # one scalar per-run workload seed, shared with the subprocess child
    # (which can only receive a scalar on its argv)
    import numpy as np

    workload_seed = int(np.random.SeedSequence([seed, run]).generate_state(1)[0])
    events = random_stream_events(
        n_events,
        capacity=capacity,
        side=side,
        r_max=r_max,
        seed=workload_seed,
        family=family,
    )
    total_bytes = expected_wal_bytes(events)
    config = _chaos_config(capacity, r_max, n_events)

    if target == "compaction":
        return _compaction_chaos_run(
            directory, run,
            plan=plan, family=family, events=events, config=config,
            total_bytes=total_bytes, n_events=n_events,
        )

    if target == "rotation":
        # aim the crash at a seal window: within ~120 bytes of a boundary
        # where the rotation rule seals one segment and opens the next
        boundaries = _seal_boundaries(events, config.segment_bytes)
        if boundaries:
            pick = boundaries[
                int(plan.chaos_uniform(run, 2) * len(boundaries))
                % len(boundaries)
            ]
            jitter = int((plan.chaos_uniform(run, 3) - 0.5) * 240.0)
            target_bytes = min(total_bytes, max(1, pick + jitter))
            kill_fraction = target_bytes / total_bytes
        else:
            target_bytes = max(1, int(kill_fraction * total_bytes))
    else:
        target_bytes = max(1, int(kill_fraction * total_bytes))

    with obs.span(
        "stream.chaos.run", run=run, family=family, mode=mode, target=target
    ):
        if mode == "inprocess":
            engine = DurableStreamEngine.create(directory, config)
            written = 0
            for seq, ev in enumerate(events, start=1):
                engine.apply(ev, collect=False)
                written += len(frame_record(ev.wal_payload(seq)))
                if written >= target_bytes:
                    break
            if crash_kind == "abort":
                engine.abort()
            else:
                engine._wal.flush()
                engine.abort()
        else:
            cmd = ingest_command(
                directory,
                n_events=n_events,
                seed=workload_seed,
                capacity=capacity,
                side=side,
                r_max=r_max,
                family=family,
                config=config,
                rate=rate,
            )
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[2])
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            child = subprocess.Popen(
                cmd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    if store_bytes(directory) >= target_bytes:
                        break
                    if child.poll() is not None:
                        break
                    time.sleep(0.002)
                if child.poll() is None:
                    os.kill(child.pid, signal.SIGKILL)
            finally:
                child.wait(timeout=30.0)

        # "torn" crashes land on the exact chosen byte: everything past it
        # is treated as never having reached the disk, so mid-record torn
        # tails happen by construction whenever target_bytes splits a frame
        if crash_kind == "torn" and store_bytes(directory) > target_bytes:
            _truncate_store(directory, target_bytes)

        detected_corruption = False
        try:
            recovered = DurableStreamEngine.open(directory)
        except WalCorruption:
            obs.count("stream.chaos.detected_corruptions")
            return ChaosRunResult(
                run=run, family=family, mode=mode, crash_kind=crash_kind,
                kill_fraction=kill_fraction, target_bytes=target_bytes,
                total_bytes=total_bytes, survived_seq=0, n_events=n_events,
                torn_tail=False, exact_prefix=False, counts_exact=False,
                resumed_exact=False, detected_corruption=True,
                recovered_digest="", reference_digest="", target=target,
            )

        survived = recovered.engine.seq
        torn = recovered.recovery.torn_tail
        recovered_digest = recovered.engine.state_digest()

        reference = StreamEngine(config)
        reference.apply_batch(events[:survived])
        reference_digest = reference.state_digest()
        exact_prefix = recovered_digest == reference_digest

        counts_exact = bool(
            (
                recovered.engine.recompute_counts()
                == recovered.engine.node_interference()
            ).all()
        )

        # resume: finish the stream on the recovered engine and check
        # convergence to the full-stream reference
        recovered.apply_batch(events[survived:])
        reference.apply_batch(events[survived:])
        resumed_exact = (
            recovered.engine.state_digest() == reference.state_digest()
        )
        recovered.close()

    result = ChaosRunResult(
        run=run, family=family, mode=mode, crash_kind=crash_kind,
        kill_fraction=kill_fraction, target_bytes=target_bytes,
        total_bytes=total_bytes, survived_seq=survived, n_events=n_events,
        torn_tail=torn, exact_prefix=exact_prefix, counts_exact=counts_exact,
        resumed_exact=resumed_exact, detected_corruption=detected_corruption,
        recovered_digest=recovered_digest, reference_digest=reference_digest,
        target=target,
    )
    obs.count("stream.chaos.runs")
    if not result.ok:
        obs.count("stream.chaos.divergences")
    return result


def _compaction_chaos_run(
    directory: Path,
    run: int,
    *,
    plan: FaultPlan,
    family: str,
    events,
    config: StreamConfig,
    total_bytes: int,
    n_events: int,
) -> ChaosRunResult:
    """Interrupt compaction partway, recover, assert exactness + that a
    re-run compaction resumes idempotently.

    ``target_bytes`` is reused to record the seeded *number of segment
    deletions* performed before the crash (the mid-compaction kill point);
    ``kill_fraction`` is that count over the deletable-segment total.
    """
    with obs.span(
        "stream.chaos.run", run=run, family=family, mode="inprocess",
        target="compaction",
    ):
        engine = DurableStreamEngine.create(directory, config)
        engine.apply_batch(events)
        engine.snapshot_now()
        cover_seq = engine.engine.seq
        deletable = max(0, len(list_segments(directory)) - 1)
        # crash after j of the deletable segments are gone: j=0 is "crashed
        # before the first unlink", j=deletable-1 is "one short of done"
        j = int(plan.chaos_uniform(run, 2) * deletable) if deletable else 0
        engine._compact_to(cover_seq, max_deletes=j)
        engine.abort()

        detected_corruption = False
        try:
            recovered = DurableStreamEngine.open(directory)
        except WalCorruption:
            obs.count("stream.chaos.detected_corruptions")
            return ChaosRunResult(
                run=run, family=family, mode="inprocess", crash_kind="abort",
                kill_fraction=j / deletable if deletable else 0.0,
                target_bytes=j, total_bytes=total_bytes, survived_seq=0,
                n_events=n_events, torn_tail=False, exact_prefix=False,
                counts_exact=False, resumed_exact=False,
                detected_corruption=True, recovered_digest="",
                reference_digest="", target="compaction",
            )

        survived = recovered.engine.seq
        recovered_digest = recovered.engine.state_digest()
        reference = StreamEngine(config)
        reference.apply_batch(events)
        reference_digest = reference.state_digest()
        # compaction must never cost state: the full stream survives
        exact_prefix = (
            survived == n_events and recovered_digest == reference_digest
        )
        counts_exact = bool(
            (
                recovered.engine.recompute_counts()
                == recovered.engine.node_interference()
            ).all()
        )
        # resume the interrupted compaction; it must finish the job, and a
        # further pass must find nothing left to do (idempotence)
        recovered.compact()
        leftover = recovered.compact()
        resumed_exact = (
            not leftover
            and len(list_segments(directory)) == 1
            and recovered.engine.state_digest() == reference_digest
        )
        recovered.close()

    result = ChaosRunResult(
        run=run, family=family, mode="inprocess", crash_kind="abort",
        kill_fraction=j / deletable if deletable else 0.0,
        target_bytes=j, total_bytes=total_bytes, survived_seq=survived,
        n_events=n_events, torn_tail=False, exact_prefix=exact_prefix,
        counts_exact=counts_exact, resumed_exact=resumed_exact,
        detected_corruption=detected_corruption,
        recovered_digest=recovered_digest, reference_digest=reference_digest,
        target="compaction",
    )
    obs.count("stream.chaos.runs")
    if not result.ok:
        obs.count("stream.chaos.divergences")
    return result


def chaos_suite(
    base_dir: str | Path,
    runs: int,
    *,
    seed: int = 0,
    n_events: int = 1000,
    capacity: int = 512,
    side: float = 12.0,
    r_max: float = 1.0,
    mode: str = "inprocess",
    rate: float | None = None,
    target: str = "uniform",
) -> list[ChaosRunResult]:
    """``runs`` independent chaos cycles under ``base_dir`` (one subdir
    each, left on disk for post-mortem when a run fails and removed when
    it passes, so a later suite into the same ``base_dir`` starts clean)."""
    base_dir = Path(base_dir)
    results = []
    for run in range(runs):
        directory = base_dir / f"run-{run:03d}"
        result = chaos_run(
            directory,
            run,
            seed=seed,
            n_events=n_events,
            capacity=capacity,
            side=side,
            r_max=r_max,
            mode=mode,
            rate=rate,
            target=target,
        )
        if result.ok:
            shutil.rmtree(directory, ignore_errors=True)
        results.append(result)
    return results


def render_chaos_results(results: list[ChaosRunResult]) -> str:
    lines = [
        "run  family     target      crash  kill%   survived    torn  prefix  counts  resume",
    ]
    for r in results:
        lines.append(
            f"{r.run:>3}  {r.family:<9} {r.target:<10} {r.crash_kind:<5} "
            f"{100 * r.kill_fraction:>5.1f}%"
            f"  {r.survived_seq:>5}/{r.n_events:<5}"
            f"  {'yes' if r.torn_tail else ' no'}"
            f"  {'  ok' if r.exact_prefix else 'FAIL'}"
            f"    {'  ok' if r.counts_exact else 'FAIL'}"
            f"  {'  ok' if r.resumed_exact else 'FAIL'}"
            + ("  CORRUPTION" if r.detected_corruption else "")
        )
    bad = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results)} runs: "
        + ("all exact" if bad == 0 else f"{bad} DIVERGENT")
    )
    return "\n".join(lines)
