"""Repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload kernel_scale --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
re-runs the workload under ``repro.obs`` capture and reports the per-layer
metrics instead. Metric names and units come from ``BENCHMARK.json`` at the
checkout root. The last line of stdout is the JSON result; the line before
it is a detail record (seed, host fingerprint, source revision, sample
counts, workload-specific metric names), which is also appended to
``.perfbench_out/results.jsonl``.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the program source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel_scale", "topology_control", "serve_mixed", "stream_churn")
#: Set-up repeats in two groups: before the timed window and after the
#: checks. Host speed drifts over seconds, so the groups sample it about 20 s
#: apart. A group runs at least its minimum (before, after) number of times,
#: and again while it took under SETUP_BUDGET_S, up to SETUP_MAX times.
#: ``setup_s`` is the median over both groups.
SETUP_MIN = (2, 2)
SETUP_MAX = 5
SETUP_BUDGET_S = 1.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _setups(workload, seed: int, minimum: int, walls: list):
    """Set up ``minimum`` or more times (see SETUP_MIN), appending each wall
    time to ``walls``; every state but the last is torn down."""
    state = None
    group: list[float] = []
    while len(group) < minimum or (
        sum(group) < SETUP_BUDGET_S and len(group) < SETUP_MAX
    ):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        group.append(time.perf_counter() - t0)
    walls += group
    return state


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gc
    import importlib
    import statistics

    import harness
    from repro.obs.report import write_trace_jsonl

    spec = _spec()
    workload = importlib.import_module(args.workload)

    setup_walls: list[float] = []
    state = None
    try:
        state = _setups(workload, args.seed, SETUP_MIN[0], setup_walls)
        # the inputs live for the whole run: keep them out of the
        # collector's scans during the timed window
        gc.collect()
        gc.freeze()
        if args.trace:
            outcome = workload.trace(state, args.seconds)
        else:
            outcome = workload.measure(state, args.seconds)
        checks = workload.check(state)
        workload.teardown(state)
        state = None
        gc.unfreeze()
        if not args.trace:  # a traced run reports no setup_s
            state = _setups(workload, args.seed, SETUP_MIN[1], setup_walls)
    finally:
        if state is not None:
            workload.teardown(state)

    failed_checks = [name for name, ok in checks if not ok]
    attempted = outcome.attempted + len(checks)
    failed = outcome.failed + len(failed_checks)
    setup_s = statistics.median(setup_walls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": harness.fingerprint(),
        "setup_walls_s": setup_walls,
        "checks": len(checks),
        "failed_checks": failed_checks,
        "error_rate": failed / attempted,
    }
    if args.trace:
        values = dict.fromkeys(spec["per_layer"], 0.0)
        unknown = set(outcome.layers) - set(values)
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(outcome.layers)
        units = spec["per_layer"]
        trace_file = harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace_jsonl(trace_file, outcome.snapshot)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = dict(outcome.metrics)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = harness.peak_rss_mb()
        units = spec["end_to_end"]
        missing = set(units) - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")
        record["samples"] = outcome.samples
        record["named"] = outcome.named
        record["not_compared"] = {k: v for k, v in values.items() if k not in units}
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    record["metrics"] = metrics
    correct = not failed_checks and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    harness.OUT_DIR.mkdir(exist_ok=True)
    with open(harness.OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
