"""topology_control: the paper's pipeline at moderate n.

One pass builds the UDGs of two uniform and two blob instances (n = 100)
and runs every registered UDG-subgraph algorithm on each, runs A_exp, A_gen
and A_apx on an exponential chain and a random highway, solves certified
OPT on exponential chains (n = 8 and 10), and runs the MAC contention
engine on an NNF topology at n = 64. Every topology is measured with
``graph_interference``.
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
    exponential_chain,
    random_blobs,
    random_highway,
    random_udg_connected,
    random_uniform_square,
)
from repro.highway import a_apx, a_exp, a_gen
from repro.interference.receiver import graph_interference
from repro.mac import MacConfig, MacSimulator
from repro.model.udg import unit_disk_graph
from repro.opt import solve_opt, verify_certificate
from repro.topologies import ALGORITHMS, build

N = 100
MAC_NODES = 64
INSTANCES = 2
#: nodes per unit area of both 2-D families
DENSITY = 4.0
#: the 2-D families: (generator, nodes, side, UDG edge count aimed at). The
#: cost of the spanner algorithms follows the edge count, so aiming at one
#: keeps a pass's work comparable across seeds; the seed still draws the
#: geometry.
FAMILIES = {
    "uniform": (random_uniform_square, N, math.sqrt(N / DENSITY), 516, {}),
    "blobs": (random_blobs, N, math.sqrt(N / DENSITY), 690, {"blobs": 10, "spread": 0.6}),
    "mac": (random_uniform_square, MAC_NODES, 4.0, 312, {}),
}
#: candidates drawn per instance, whatever the seed, so set-up does the
#: same work on every seed (about half the blob draws are disconnected)
CANDIDATES = 24
HIGHWAY = (("a_exp", a_exp), ("a_gen", a_gen), ("a_apx", a_apx))
OPT_SIZES = (8, 10)
MAC_SLOTS = 2000
#: forest algorithms carry no connectivity guarantee (as in the registry's
#: contract tests)
FOREST_ONLY = {"nnf", "knn3"}


def _draw(family: str, seed: int) -> np.ndarray:
    """Of CANDIDATES seeded draws, the connected one without coincident
    nodes whose UDG edge count is nearest the family's. Draws go on past
    CANDIDATES only while no draw qualified."""
    generator, n, side, target, kwargs = FAMILIES[family]
    rng = np.random.default_rng(seed)
    best, best_gap, draws = None, math.inf, 0
    while draws < CANDIDATES or best is None:
        draws += 1
        pos = generator(n, side=side, seed=rng, **kwargs)
        udg = unit_disk_graph(pos)
        gap = abs(udg.n_edges - target)
        if gap < best_gap and udg.is_connected() and np.unique(pos, axis=0).shape[0] == n:
            best, best_gap = pos, gap
    return best


def setup(seed: int) -> dict:
    t0 = time.perf_counter()
    instances = {
        f"{family}{k}": _draw(family, seed * 1000 + 10 * k + j)
        for j, family in enumerate(("uniform", "blobs"))
        for k in range(INSTANCES)
    }
    chains = {
        "exp_chain": exponential_chain(48),
        "highway": random_highway(256, max_gap=1.0, seed=seed + 2),
    }
    opt_chains = {n: exponential_chain(n) for n in OPT_SIZES}
    mac_pos = _draw("mac", seed + 3)
    generate_s = time.perf_counter() - t0
    mac_topology = build("nnf", unit_disk_graph(mac_pos))
    # warm-up: every entry point once on a small fixed instance (imports,
    # lazy module state), far cheaper than a pass
    small = unit_disk_graph(random_udg_connected(30, side=2.5, seed=0))
    for alg in ALGORITHMS:
        graph_interference(build(alg, small))
    for _, fn in HIGHWAY:
        fn(exponential_chain(8))
    solve_opt(exponential_chain(5))
    MacSimulator(mac_topology).run(50, seed=seed)
    return {
        "seed": seed,
        "instances": instances,
        "chains": chains,
        "opt_chains": opt_chains,
        "mac_topology": mac_topology,
        "generate_s": generate_s,
        "first": None,
    }


def _one_pass(state: dict) -> dict:
    item_ms = []
    build_ms = []
    values = {}
    built = {}
    udgs = {}
    udg_edges = 0
    for label, pos in state["instances"].items():
        t0 = time.perf_counter()
        with layer_span("model", "udg", instance=label):
            udg = unit_disk_graph(pos)
        item_ms.append((time.perf_counter() - t0) * 1e3)
        udg_edges += udg.n_edges
        udgs[label] = udg
        for alg in ALGORITHMS:
            t0 = time.perf_counter()
            with layer_span("topologies", alg, instance=label):
                topo = build(alg, udg)
            with layer_span("interference", "graph", instance=label):
                values[(label, alg)] = graph_interference(topo)
            build_ms.append((time.perf_counter() - t0) * 1e3)
            item_ms.append(build_ms[-1])
            built[(label, alg)] = topo
    for label, pos in state["chains"].items():
        for name, fn in HIGHWAY:
            t0 = time.perf_counter()
            with layer_span("highway", name, instance=label):
                topo = fn(pos)
            with layer_span("interference", "graph", instance=label):
                values[(label, name)] = graph_interference(topo)
            item_ms.append((time.perf_counter() - t0) * 1e3)
            built[(label, name)] = topo
    outcomes = {}
    for n, pos in state["opt_chains"].items():
        t0 = time.perf_counter()
        with layer_span("opt", "solve", n=n):
            outcome = solve_opt(pos)
        with layer_span("opt", "verify", n=n):
            verify_certificate(pos, outcome.certificate, recheck_search=False)
        item_ms.append((time.perf_counter() - t0) * 1e3)
        outcomes[n] = outcome
        values[("opt", n)] = (outcome.value, outcome.lower_bound)
    t0 = time.perf_counter()
    with layer_span("mac", "run", n=MAC_NODES, slots=MAC_SLOTS):
        mac = MacSimulator(state["mac_topology"], config=MacConfig()).run(
            MAC_SLOTS, seed=state["seed"]
        )
    item_ms.append((time.perf_counter() - t0) * 1e3)
    values["mac"] = int(mac.delivered.sum())
    if state["first"] is None:
        state["first"] = {
            "udgs": udgs,
            "built": built,
            "outcomes": outcomes,
            "mac": mac,
            "udg_edges": udg_edges,
        }
    return {"item_ms": item_ms, "build_ms": build_ms, "values": values}


def measure(state: dict, seconds: float) -> Measured:
    results, walls = run_passes(lambda: _one_pass(state), seconds)
    items = best_of([r["item_ms"] for r in results])
    builds = best_of([r["build_ms"] for r in results])
    state["pass_values"] = [r["values"] for r in results]
    wall = sum(items) / 1e3
    # the rate covers the UDG-subgraph builds (each with its measure) alone;
    # the pass time also holds the UDGs, highway, OPT and MAC items
    builds_per_s = len(builds) / (sum(builds) / 1e3)
    metrics = {
        "throughput": builds_per_s,
        "p50_ms": median(items),
        "p99_ms": percentile(items, 99),
        "unit_s": wall,
    }
    return Measured(
        attempted=len(items) * len(walls),
        failed=0,
        metrics=metrics,
        samples={"items": len(items), "passes": len(walls)},
        named={"control.wall_s": wall, "control.builds_per_s": builds_per_s},
    )


def trace(state: dict, seconds: float) -> Traced:
    run = trace_passes(lambda: _one_pass(state), seconds)
    state["pass_values"] = [r["values"] for r in run.results]
    attr, layers = common_layers(run)
    by_name = attr["by_name"]
    for alg in ALGORITHMS:
        layers[f"topologies.{alg}_s"] = by_name.get(f"bench.topologies.{alg}", 0.0)
    for name, _ in HIGHWAY:
        layers[f"highway.{name}_s"] = by_name.get(f"bench.highway.{name}", 0.0)
    layers["opt.solve_s"] = by_name.get("bench.opt.solve", 0.0)
    layers["opt.verify_s"] = by_name.get("bench.opt.verify", 0.0)
    first = state["first"]
    layers["opt.nodes_expanded"] = sum(
        o.stats.get("nodes_expanded", 0) for o in first["outcomes"].values()
    )
    mac_s = by_name.get("bench.mac.run", 0.0)
    layers["mac.run_s"] = mac_s
    layers["mac.slots_per_s"] = MAC_SLOTS / mac_s if mac_s > 0 else 0.0
    mac = first["mac"]
    layers["mac.delivered_frac"] = int(mac.delivered.sum()) / max(
        int(mac.arrivals.sum()), 1
    )
    layers["model.udg_s"] = by_name.get("bench.model.udg", 0.0)
    layers["model.udg_edges"] = first["udg_edges"]
    layers["geometry.generate_s"] = state["generate_s"]
    return Traced(
        attempted=run.passes * len(run.results[0]["item_ms"]),
        failed=0,
        layers=layers,
        snapshot=run.snapshot,
    )


def check(state: dict) -> list[tuple[str, bool]]:
    first = state["first"]
    checks = []
    for (label, name), topo in first["built"].items():
        if label in first["udgs"]:
            udg = first["udgs"][label]
            spanning = topo.n == udg.n and np.array_equal(topo.positions, udg.positions)
            checks.append((f"subgraph:{label}.{name}", spanning and topo.is_subgraph_of(udg)))
            if name not in FOREST_ONLY:
                checks.append((f"connected:{label}.{name}", topo.is_connected()))
        else:
            checks.append((f"connected:{label}.{name}", topo.is_connected()))
    for n, outcome in first["outcomes"].items():
        pos = state["opt_chains"][n]
        # the exhaustive lower-bound re-check costs seconds at n = 10, so it
        # runs on the smallest instance; the others get the full set of
        # structural checks
        full = n == min(OPT_SIZES)
        try:
            ok = verify_certificate(pos, outcome.certificate, recheck_search=full)
        except ValueError:
            ok = False
        checks.append((f"certificate:n{n}", ok and outcome.exact))
    checks.append(("mac.conservation", first["mac"].conservation_ok))
    passes = state.get("pass_values", [])
    checks.append(("deterministic_passes", all(v == passes[0] for v in passes)))
    return checks


def teardown(state: dict) -> None:
    state.clear()
