"""Shared machinery for the perfbench workloads.

- ``layer_span`` opens a benchmark-owned ``repro.obs`` span around one call
  into a program layer. While the registry is disabled (every untraced run)
  it is the registry's shared no-op, so traced and untraced runs execute the
  same code.
- ``run_passes`` / ``trace_passes`` drive a workload's fixed unit of work
  ("pass") for a time window, untraced or traced.
- ``attribute`` turns the traced span trees into per-layer self times.
- ``fingerprint`` records the host and the source revision with each result.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.serve.loadgen import percentile as loadgen_percentile

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stream directories, serve stats and trace files
#: (inside the checkout, ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

#: The program layers, named after the ``repro`` packages the workloads call.
LAYERS = (
    "geometry",
    "model",
    "interference",
    "topologies",
    "highway",
    "opt",
    "mac",
    "serve",
    "stream",
)

#: Name of the root span wrapped around each traced pass.
TIMED = "bench.timed"


def layer_span(layer: str, op: str, **attrs):
    """Span ``bench.<layer>.<op>`` around one benchmark call into ``layer``."""
    return obs.span(f"bench.{layer}.{op}", layer=layer, **attrs)


def percentile(values, q: float) -> float:
    """Loadgen's nearest-rank percentile (``q`` in [0, 100]) of unsorted
    ``values``."""
    return loadgen_percentile(sorted(values), q)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def best_of(per_pass: list[list[float]]) -> list[float]:
    """Slot-wise minimum over passes: slot k is the k-th operation of every
    pass (passes repeat the same operations in the same order).

    The host's speed swings by up to ~1.6x over a few seconds, so an
    operation's fastest repetition is its steadiest estimate (the same
    best-of-rounds rule the repository's bench_* gates use).
    """
    return [min(column) for column in zip(*per_pass)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    """Outcome of one untraced measurement window."""

    attempted: int
    failed: int
    #: generic end-to-end metrics: throughput, p50_ms, p99_ms, unit_s
    metrics: dict
    #: sample count behind each latency metric
    samples: dict
    #: the same numbers under the workload-specific names
    named: dict = field(default_factory=dict)


@dataclass
class Traced:
    """Outcome of one traced run: per-layer metrics and the span snapshot."""

    attempted: int
    failed: int
    layers: dict
    snapshot: obs.ObsSnapshot | None = None


def run_passes(one_pass, seconds: float) -> tuple[list, list[float]]:
    """Run ``one_pass()`` until ``seconds`` elapse (at least once); return
    each pass's result and wall time.

    Every pass starts after a full collection, so the garbage earlier
    passes left behind does not land in a later pass's timings.
    """
    results, walls = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        results.append(one_pass())
        walls.append(time.perf_counter() - t0)
    return results, walls


@dataclass
class TraceRun:
    passes: int
    untraced_s: float
    traced_s: float
    snapshot: obs.ObsSnapshot
    results: list


def trace_passes(one_pass, seconds: float) -> TraceRun:
    """Run passes untraced for half the window, then the same number of
    passes under ``obs.capture()``, each inside a ``bench.timed`` root.

    The ratio of the two walls is the tracing overhead; the end-to-end
    metrics never come from here.
    """
    _, walls = run_passes(one_pass, seconds / 2.0)
    results = []
    traced_s = 0.0
    with obs.capture() as registry:
        for _ in walls:
            gc.collect()
            t0 = time.perf_counter()
            with obs.span(TIMED):
                results.append(one_pass())
            traced_s += time.perf_counter() - t0
        snapshot = registry.snapshot()
    return TraceRun(len(walls), sum(walls), traced_s, snapshot, results)


def _layer_of(span) -> str | None:
    return span.attrs.get("layer") if span.name.startswith("bench.") else None


def attribute(snapshot: obs.ObsSnapshot, passes: int) -> dict:
    """Per-layer self time (per pass), ``unattributed_frac`` and the total
    duration of every benchmark span name (per pass).

    A benchmark span's self time is its duration minus the durations of
    its nearest benchmark-span descendants; the program's own spans nested
    inside it count towards the enclosing benchmark span's layer.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    by_name: dict[str, float] = {}
    timed = 0.0

    def visit(span, owner) -> None:
        layer = _layer_of(span)
        if layer is not None:
            self_s[layer] += span.duration_s
            if owner is not None:
                self_s[_layer_of(owner)] -= span.duration_s
            by_name[span.name] = by_name.get(span.name, 0.0) + span.duration_s
            owner = span
        for child in span.children:
            visit(child, owner)

    for root in snapshot.spans:
        if root.name != TIMED:
            continue
        timed += root.duration_s
        for child in root.children:
            visit(child, None)
    attributed = sum(self_s.values())
    per = max(passes, 1)
    return {
        "self_s": {k: v / per for k, v in self_s.items()},
        "by_name": {k: v / per for k, v in by_name.items()},
        "unattributed_frac": 1.0 - attributed / timed if timed > 0 else 0.0,
    }


def common_layers(run: TraceRun) -> tuple[dict, dict]:
    """Attribution plus the layer metrics every traced workload reports:
    ``self_s.<layer>``, ``unattributed_frac`` and ``obs.overhead_frac``."""
    attr = attribute(run.snapshot, run.passes)
    layers = {f"self_s.{k}": v for k, v in attr["self_s"].items()}
    layers["unattributed_frac"] = attr["unattributed_frac"]
    layers["obs.overhead_frac"] = (
        run.traced_s / run.untraced_s - 1.0 if run.untraced_s > 0 else 0.0
    )
    return attr, layers


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD's sha read from ``.git`` directly (no subprocess); ``None`` in
    a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): identifies the program
    revision even where no git metadata exists."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": sys.platform,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }
