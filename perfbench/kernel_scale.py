"""kernel_scale: the offline interference path at scale.

Set-up draws three instance families at n = 2x10^4 (uniform, Gaussian
blobs, a random highway chain plus a short dense chain that the kernels
cannot prune) and builds UDG, EMST and NNF on each. One pass evaluates
``node_interference`` and the graph/average measures on every topology,
then one fused ``node_interference_many`` over the whole set.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import (
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
from repro.geometry.generators import (
    random_blobs,
    random_highway,
    random_uniform_square,
)
from repro.interference.batch import node_interference_many
from repro.interference.receiver import (
    ATOL,
    RTOL,
    average_interference,
    graph_interference,
    node_interference,
)
from repro.model.udg import unit_disk_graph
from repro.topologies import build

N = 20_000
#: nodes per unit area of the 2-D families (UDG mean degree ~9)
DENSITY = 3.0
ALGORITHMS = ("emst", "nnf")
#: nodes re-counted from positions per topology by the check
SAMPLE = 64
#: bytes the batch kernel touches per node (x, y, r_eff, cell id, count)
#: and per covered pair (one int64 index pair) -- a computed estimate
NODE_BYTES = 40
PAIR_BYTES = 16


def _families(seed: int) -> dict:
    side = math.sqrt(N / DENSITY)
    return {
        "uniform": [random_uniform_square(N, side=side, seed=seed)],
        "blobs": [
            random_blobs(N, side=side, blobs=100, spread=3.0, seed=seed + 1)
        ],
        # a long sparse highway, and a short dense one on which every disk
        # covers most of the span: the kernels' coverage fallback
        "chain": [
            random_highway(N, max_gap=1.0, seed=seed + 2),
            random_highway(400, length=1.5, seed=seed + 3),
        ],
    }


def setup(seed: int) -> dict:
    timings = {"generate_s": 0.0, "udg_s": 0.0}
    t0 = time.perf_counter()
    families = _families(seed)
    timings["generate_s"] = time.perf_counter() - t0
    topologies = []  # (family, label, topology)
    udg_edges = 0
    for family, instances in families.items():
        for k, pos in enumerate(instances):
            t0 = time.perf_counter()
            udg = unit_disk_graph(pos)
            timings["udg_s"] += time.perf_counter() - t0
            udg_edges += udg.n_edges
            topologies.append((family, f"{family}{k}.udg", udg))
            if pos.shape[0] < N:
                continue  # the dense chain is measured as a bare UDG
            for alg in ALGORITHMS:
                topologies.append((family, f"{family}{k}.{alg}", build(alg, udg)))
    # warm-up: first calls into every kernel entry point on small inputs
    small = [t for _, _, t in topologies if t.n < N] + [
        unit_disk_graph(random_uniform_square(500, side=10.0, seed=seed))
    ]
    for topo in small:
        node_interference(topo)
    node_interference_many(small)
    return {
        "seed": seed,
        "topologies": topologies,
        "timings": timings,
        "udg_edges": udg_edges,
        "first": None,
    }


def _one_pass(state: dict) -> dict:
    topologies = state["topologies"]
    call_ms = []
    vectors = []
    for family, label, topo in topologies:
        t0 = time.perf_counter()
        with layer_span("interference", "node", family=family, topology=label):
            vec = node_interference(topo)
        t1 = time.perf_counter()
        with layer_span("interference", "graph", family=family, topology=label):
            graph = graph_interference(topo)
        t2 = time.perf_counter()
        with layer_span("interference", "average", family=family, topology=label):
            average = average_interference(topo)
        t3 = time.perf_counter()
        call_ms += [(t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3]
        vectors.append((vec, graph, average))
    t0 = time.perf_counter()
    with layer_span("interference", "many", instances=len(topologies)):
        many = node_interference_many([t for _, _, t in topologies])
    call_ms.append((time.perf_counter() - t0) * 1e3)
    if state["first"] is None:
        state["first"] = {"vectors": vectors, "many": many}
    return {"call_ms": call_ms}


def measure(state: dict, seconds: float) -> Measured:
    results, walls = run_passes(lambda: _one_pass(state), seconds)
    calls = best_of([r["call_ms"] for r in results])
    pass_s = sum(calls) / 1e3
    # the rate is the node measure's alone: node_interference is the first
    # of every topology's three calls
    node_s = sum(calls[0:-1:3]) / 1e3
    nodes_per_s = sum(t.n for _, _, t in state["topologies"]) / node_s
    metrics = {
        "throughput": nodes_per_s,
        "p50_ms": median(calls),
        "p99_ms": percentile(calls, 99),
        "unit_s": pass_s,
    }
    return Measured(
        attempted=len(calls) * len(walls),
        failed=0,
        metrics=metrics,
        samples={"calls": len(calls), "passes": len(walls)},
        named={"kernel.nodes_per_s": nodes_per_s, "kernel.pass_s": pass_s},
    )


def trace(state: dict, seconds: float) -> Traced:
    run = trace_passes(lambda: _one_pass(state), seconds)
    attr, layers = common_layers(run)
    per_family: dict[str, float] = {}
    for s, _ in run.snapshot.iter_spans():
        if s.name == "bench.interference.node":
            family = s.attrs["family"]
            per_family[family] = per_family.get(family, 0.0) + s.duration_s
    for family in ("uniform", "blobs", "chain"):
        layers[f"interference.node_s.{family}"] = (
            per_family.get(family, 0.0) / run.passes
        )
    layers["interference.many_s"] = attr["by_name"].get("bench.interference.many", 0.0)
    covered = sum(int(v.sum()) for v, _, _ in state["first"]["vectors"])
    n_total = sum(t.n for _, _, t in state["topologies"])
    layers["interference.covered_pairs"] = covered
    # four kernel evaluations of every topology per pass
    layers["interference.bytes_computed"] = 4 * (
        n_total * NODE_BYTES + covered * PAIR_BYTES
    )
    fallbacks = sum(
        v for k, v in run.snapshot.counters.items()
        if k.startswith("interference.") and ".fallback_" in k
    )
    layers["interference.fallbacks"] = fallbacks / run.passes
    timings = state["timings"]
    layers["geometry.generate_s"] = timings["generate_s"]
    layers["model.udg_s"] = timings["udg_s"]
    layers["model.udg_edges"] = state["udg_edges"]
    return Traced(
        attempted=run.passes * (3 * len(state["topologies"]) + 1),
        failed=0,
        layers=layers,
        snapshot=run.snapshot,
    )


def _recount(topo, nodes: np.ndarray) -> np.ndarray:
    """I(v) for the sampled nodes, straight from positions and radii."""
    pos = topo.positions
    r_eff = topo.radii * (1.0 + RTOL) + ATOL
    out = np.empty(nodes.size, dtype=np.int64)
    for i, v in enumerate(nodes):
        d = np.hypot(pos[:, 0] - pos[v, 0], pos[:, 1] - pos[v, 1])
        covers = d <= r_eff
        covers[v] = False
        out[i] = int(covers.sum())
    return out


def check(state: dict) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(state["seed"])
    first = state["first"]
    checks = []
    for (family, label, topo), (vec, graph, average), fused in zip(
        state["topologies"], first["vectors"], first["many"]
    ):
        nodes = rng.choice(topo.n, size=min(SAMPLE, topo.n), replace=False)
        checks.append((f"recount:{label}", np.array_equal(_recount(topo, nodes), vec[nodes])))
        checks.append((f"measures:{label}", graph == int(vec.max()) and math.isclose(average, float(vec.mean()))))
        checks.append((f"fused:{label}", np.array_equal(fused, vec)))
    return checks


def teardown(state: dict) -> None:
    state.clear()
