"""serve_mixed: the online path through an out-of-process ``repro serve``.

The server runs with one worker process. The seeded request mix is mostly
small (``interference`` at n <= 48, ``build_topology`` emst/xtc/nnf,
``experiment diag_echo``) plus one large ``interference`` request in every
20 (uniform, n = 1200, ``measure=node``). A run has two phases: a closed
loop over two connections (capacity), and an open Poisson loop at a fixed
rate, each request timed from its due time. The closed block repeats
CLOSED_REPEATS times, and an equal part of the open loop runs after each
repetition, so the closed block's repetitions spread over the window.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time

from harness import (
    OUT_DIR,
    ROOT,
    Measured,
    TraceRun,
    Traced,
    best_of,
    common_layers,
    layer_span,
    median,
    percentile,
)
from repro import obs
from repro.interference.receiver import node_interference
from repro.model.udg import unit_disk_graph
from repro.serve import handlers
from repro.serve.client import ServeClient
from repro.serve.loadgen import DIGEST_KINDS
from repro.serve.protocol import decode_message, encode_message

#: open-loop arrival rate, under half the closed-loop capacity measured on
#: a 2-CPU host (140-230 req/s)
RATE_RPS = 64.0
CONNECTIONS = 2
#: the closed loop runs one block of this many requests, CLOSED_REPEATS
#: times; each repetition is followed by an equal part of the open loop
CLOSED_BLOCK = 100
CLOSED_REPEATS = 4
#: share of the window the open loop is scheduled over
OPEN_SHARE = 0.875
#: exactly one large request in every group of this many (5%), at a
#: seeded position, so any block's mix does not depend on the seed
LARGE_EVERY = 20
LARGE_N = 1200
LARGE_SIDE = 20.0
SMALL_N = (24, 48)
#: small-request mix weights (loadgen's default mix)
SMALL_MIX = (("interference", 8), ("build_topology", 1), ("experiment", 1))
STREAM_LENGTH = 8000
LABELS = ("interference", "interference_large", "build_topology", "experiment")


def _request(rng: random.Random, large: bool) -> tuple[str, str, dict]:
    """One seeded request: (label, type, params)."""
    if large:
        return "interference_large", "interference", {
            "generator": "random_uniform_square",
            "args": {"n": LARGE_N, "side": LARGE_SIDE, "seed": rng.randrange(2**31)},
            "measure": "node",
        }
    kinds = [k for k, w in SMALL_MIX for _ in range(w)]
    kind = rng.choice(kinds)
    if kind == "experiment":
        return kind, kind, {
            "experiment_id": "diag_echo",
            "kwargs": {"payload": rng.randrange(2**16)},
        }
    params = {
        "generator": "random_udg_connected",
        "args": {"n": rng.randint(*SMALL_N), "side": 2.0, "seed": rng.randrange(2**31)},
    }
    if kind == "build_topology":
        params["algorithm"] = rng.choice(("emst", "xtc", "nnf"))
        params["include_edges"] = False
    return kind, kind, params


def _requests(rng: random.Random, count: int) -> list[tuple[str, str, dict]]:
    """The seeded stream: one large request per LARGE_EVERY, the rest small."""
    out = []
    for start in range(0, count, LARGE_EVERY):
        large_at = start + rng.randrange(LARGE_EVERY)
        out += [_request(rng, i == large_at) for i in range(start, start + LARGE_EVERY)]
    return out[:count]


def _start_server(stats_path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "1", "--stats-json", str(stats_path),
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    banner = proc.stdout.readline()
    if "listening on " not in banner:
        _stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {banner!r}")
    port = int(banner.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def _digest(result) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


async def _issue(client, requests, i, records, due=None):
    label, kind, params = requests[i]
    sent = time.perf_counter()
    try:
        response = await client.request_raw(kind, params)
    except (ConnectionError, OSError, RuntimeError):
        response = {"ok": False}
    done = time.perf_counter()
    records.append({
        "index": i,
        "label": label,
        "sent": sent,
        "due": sent if due is None else due,
        "client_ms": (done - sent) * 1e3,
        "latency_ms": (done - (sent if due is None else due)) * 1e3,
        "server_ms": response.get("ms"),
        "ok": bool(response.get("ok")),
        "response": response,
    })


async def _closed(port, requests, start, count):
    """Closed loop over CONNECTIONS connections: requests
    ``start .. start + count - 1``, each connection sending its next
    request when the previous reply arrives."""
    records: list[dict] = []
    cursor = iter(range(start, start + count))

    async def worker():
        client = await ServeClient.connect("127.0.0.1", port)
        try:
            for i in cursor:
                await _issue(client, requests, i, records)
        finally:
            await client.close()

    t0 = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return records, time.perf_counter() - t0


async def _open(port, requests, start, n, seed):
    """Open loop: ``n`` requests at Poisson arrivals of RATE_RPS on one
    pipelined connection; latency counts from each request's due time."""
    rng = random.Random(seed ^ 0x5EEDED)
    offsets, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(RATE_RPS)
        offsets.append(t)
    records: list[dict] = []
    client = await ServeClient.connect("127.0.0.1", port)
    base = time.perf_counter() + 0.05

    async def fire(offset, i):
        due = base + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await _issue(client, requests, i, records, due=due)

    try:
        await asyncio.gather(*(fire(o, start + k) for k, o in enumerate(offsets)))
    finally:
        await client.close()
    return records


def setup(seed: int) -> dict:
    requests = _requests(random.Random(seed), STREAM_LENGTH)
    OUT_DIR.mkdir(exist_ok=True)
    stats_path = OUT_DIR / f"serve-stats-{os.getpid()}.json"
    proc, port = _start_server(stats_path)
    state = {
        "seed": seed,
        "requests": requests,
        "proc": proc,
        "port": port,
        "stats_path": stats_path,
        "records": [],
        "replay": None,
    }
    # warm-up: the worker pool's imports and first kernel calls, over a
    # separate seeded stream that holds every request label
    asyncio.run(_closed(port, _requests(random.Random(~seed), 2 * LARGE_EVERY), 0, 2 * LARGE_EVERY))
    return state


def measure(state: dict, seconds: float) -> Measured:
    requests, port = state["requests"], state["port"]
    n_open = max(1, round(RATE_RPS * OPEN_SHARE * seconds))
    part = -(-n_open // CLOSED_REPEATS)
    runs, walls, opened = [], [], []
    for k in range(CLOSED_REPEATS):
        records, wall = asyncio.run(_closed(port, requests, 0, CLOSED_BLOCK))
        runs.append(records)
        walls.append(wall)
        start = CLOSED_BLOCK + k * part
        count = min(part, n_open - k * part)
        if count > 0:
            opened += asyncio.run(
                _open(port, requests, start, count, state["seed"] * CLOSED_REPEATS + k)
            )
    state["records"] = [r for run in runs for r in run] + opened
    capacity = CLOSED_BLOCK / min(walls)
    latencies = [r["latency_ms"] for r in opened if r["ok"]]
    # each request of the block at its fastest repetition
    by_slot = best_of([[r["client_ms"] for r in sorted(run, key=lambda r: r["index"])] for run in runs])
    large = [
        ms / 1e3 for i, ms in enumerate(by_slot) if requests[i][0] == "interference_large"
    ]
    metrics = {
        "throughput": capacity,
        "p50_ms": median(latencies),
        "p99_ms": percentile(latencies, 99),
        "unit_s": median(large),
    }
    records = state["records"]
    return Measured(
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        metrics=metrics,
        samples={"open_requests": len(latencies), "closed_block": CLOSED_BLOCK,
                 "large_in_block": len(large)},
        named={
            "serve.capacity_rps": capacity,
            "serve.p50_ms": metrics["p50_ms"],
            "serve.p99_ms": metrics["p99_ms"],
            "serve.large_request_s": metrics["unit_s"],
            "serve.open_rate_rps": RATE_RPS,
        },
    )


def _stop_and_read_stats(state: dict) -> dict:
    proc = state.pop("proc", None)
    if proc is None:
        return {}
    _stop_server(proc)
    path = state["stats_path"]
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    finally:
        path.unlink(missing_ok=True)


def _replay(state: dict) -> dict:
    """Re-run every issued request once, in-process, through
    ``handlers.run_request``: index -> (handler ms, type, result)."""
    if state["replay"] is None:
        out = {}
        for index in sorted({r["index"] for r in state["records"]}):
            _, kind, params = state["requests"][index]
            t0 = time.perf_counter()
            result = handlers.run_request(kind, params)
            out[index] = ((time.perf_counter() - t0) * 1e3, kind, result)
        state["replay"] = out
    return state["replay"]


def trace(state: dict, seconds: float) -> Traced:
    requests, port = state["requests"], state["port"]
    k = CLOSED_BLOCK
    untraced, untraced_s = asyncio.run(_closed(port, requests, 0, k))
    with obs.capture() as registry:
        with obs.span("bench.timed"), layer_span("serve", "closed_loop"):
            t0 = time.perf_counter()
            closed, _ = asyncio.run(_closed(port, requests, 0, k))
            traced_s = time.perf_counter() - t0
        with obs.span("bench.timed"), layer_span("serve", "open_loop"):
            opened = asyncio.run(
                _open(port, requests, k, max(1, round(RATE_RPS * seconds / 2)), state["seed"])
            )
        snapshot = registry.snapshot()
    stats = _stop_and_read_stats(state)
    state["records"] = untraced + closed + opened
    traced = closed + opened
    run = TraceRun(1, untraced_s, traced_s, snapshot, [])
    _, layers = common_layers(run)
    replay = _replay(state)

    ok = [r for r in traced if r["ok"]]
    for label in LABELS:
        mine = [r for r in ok if r["label"] == label]
        layers[f"serve.client_ms.{label}"] = median(r["client_ms"] for r in mine) if mine else 0.0
        layers[f"serve.handler_ms.{label}"] = (
            median(replay[r["index"]][0] for r in mine) if mine else 0.0
        )
    server = [r["server_ms"] for r in ok]
    layers["serve.server_ms.p50"] = median(server)
    layers["serve.server_ms.p99"] = percentile(server, 99)
    layers["serve.wire_ms.p50"] = median(r["client_ms"] - r["server_ms"] for r in ok)
    layers["serve.dispatch_overhead_ms"] = median(
        r["server_ms"] - replay[r["index"]][0] for r in ok
    )
    codec = []
    for r in ok:
        _, kind, params = requests[r["index"]]
        for message in ({"id": r["index"], "type": kind, "params": params}, r["response"]):
            t0 = time.perf_counter()
            decode_message(encode_message(message))
            codec.append((time.perf_counter() - t0) * 1e6)
    layers["serve.codec_us"] = median(codec)
    batches = stats.get("batches", 0)
    layers["serve.batches"] = batches
    layers["serve.mean_batch_size"] = stats.get("batched_requests", 0) / batches if batches else 0.0
    layers["serve.rejected_overloaded"] = stats.get("rejected_overloaded", 0)
    layers["serve.deadline_exceeded"] = stats.get("deadline_exceeded", 0)
    layers["serve.gen_late_ms.p99"] = percentile(
        [(r["sent"] - r["due"]) * 1e3 for r in opened], 99
    )
    # the large requests' UDG and kernel, in this process
    udg_s, edges, kernel_s = [], [], []
    for r in traced:
        if r["label"] != "interference_large":
            continue
        pos = handlers.resolve_positions(requests[r["index"]][2])
        t0 = time.perf_counter()
        udg = unit_disk_graph(pos)
        t1 = time.perf_counter()
        node_interference(udg)
        kernel_s.append(time.perf_counter() - t1)
        udg_s.append(t1 - t0)
        edges.append(udg.n_edges)
    layers["model.udg_s"] = median(udg_s) if udg_s else 0.0
    layers["model.udg_edges"] = median(edges) if edges else 0.0
    layers["interference.node_s.uniform"] = median(kernel_s) if kernel_s else 0.0
    records = state["records"]
    return Traced(
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        layers=layers,
        snapshot=snapshot,
    )


def check(state: dict) -> list[tuple[str, bool]]:
    # the replay below must not compete with a live server for the CPUs
    _stop_and_read_stats(state)
    records = state["records"]
    replayed = {
        index: _digest(result)
        for index, (_, kind, result) in _replay(state).items()
        if kind in DIGEST_KINDS
    }
    served: dict[int, set] = {}
    for r in records:
        if r["ok"] and r["index"] in replayed:
            served.setdefault(r["index"], set()).add(_digest(r["response"].get("result")))

    def combine(digests):
        lines = "\n".join(f"{i}:{d}" for i, d in sorted(digests.items()))
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()

    return [
        ("all_requests_ok", all(r["ok"] for r in records)),
        ("repeats_identical", all(len(d) == 1 for d in served.values())),
        ("payload_digest", combine({i: min(d) for i, d in served.items()}) == combine(replayed)),
    ]


def teardown(state: dict) -> None:
    _stop_and_read_stats(state)
    state.clear()
