"""Seeded upper-bound heuristic: simulated annealing over spanning trees.

The exact solver needs a good incumbent to prune against, and instances
beyond ~16 nodes need *some* certified upper bound even when the search
cannot finish. This module provides both: a seeded simulated-annealing
walk over spanning trees of the unit disk graph (the same edge-swap move
as :func:`repro.extensions.local_search.reduce_interference`, whose
path helper and :class:`~repro.extensions.local_search.TreeSwapEvaluator`
it reuses), followed by the deterministic hill-climb itself. The
result is a connected UDG-subgraph witness, so its measured interference
is always a valid certified upper bound on OPT.

Annealing proposes a random non-tree UDG edge, closes the cycle, removes a
random cycle edge, and accepts by the Metropolis rule on the lexicographic
objective ``(I(G), sum I(v))`` flattened to ``I(G) * n^2 + sum`` — worse
moves pass with probability ``exp(-delta / T)`` under a geometric
temperature schedule. The best tree ever visited (not the last) goes into
the final hill-climb.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import obs
from repro.extensions.local_search import (
    TreeSwapEvaluator,
    reduce_interference,
    tree_path,
)
from repro.graphs.mst import euclidean_mst_edges
from repro.interference.receiver import graph_interference
from repro.model.topology import Topology
from repro.opt.config import _TIME_CHECK_MASK, OptConfig
from repro.utils import as_generator, check_positions

#: Annealing proposals per node (the walk length is ``ANNEAL_STEPS_PER_NODE
#: * n``), balanced so the heuristic stays well under the exact search's
#: cost on solvable instances.
ANNEAL_STEPS_PER_NODE = 60


def heuristic_opt(
    positions,
    *,
    unit: float = 1.0,
    config: OptConfig | None = None,
    _deadline: float | None = None,
) -> tuple[int, Topology]:
    """Best-effort minimum-interference topology (certified upper bound).

    Returns ``(value, topology)`` where ``topology`` is a connected
    subgraph of the unit disk graph and ``value`` its measured
    interference. Raises ``ValueError`` when the UDG is disconnected.
    ``_deadline`` (a ``time.perf_counter()`` reading, set by
    :func:`repro.opt.solve_opt` from its time budget) cuts the annealing
    walk and the hill-climb short; each stops with a connected tree.
    """
    from repro.model.udg import unit_disk_graph

    pos = check_positions(positions)
    cfg = config or OptConfig()
    n = pos.shape[0]
    if n <= 1:
        return 0, Topology(pos, ())
    udg = unit_disk_graph(pos, unit=unit)
    if not udg.is_connected():
        raise ValueError("the unit disk graph is disconnected; no feasible topology")
    with obs.span("opt.heuristic", n=n):
        annealed = _anneal(udg, seed=cfg.seed, deadline=_deadline)
        polished = reduce_interference(
            udg, start=annealed, seed=cfg.seed, _deadline=_deadline
        )
    best = min(
        (polished, annealed),
        key=lambda t: int(graph_interference(t)),
    )
    return int(graph_interference(best)), best


def _anneal(
    udg: Topology, *, seed, steps: int | None = None, deadline: float | None = None
) -> Topology:
    """Simulated-annealing walk over spanning trees of ``udg``. Past
    ``deadline`` (read every 256 proposals) the walk stops and returns the
    best tree it has visited, still a connected witness."""
    pos = udg.positions
    n = udg.n
    tree_edges = euclidean_mst_edges(pos, candidate_edges=udg.edges)
    rng = as_generator(seed)
    candidates = [tuple(map(int, e)) for e in udg.edges]
    if not candidates or n <= 2:
        return Topology(pos, tree_edges)
    ev = TreeSwapEvaluator(udg, tree_edges)
    adj = ev.adj

    def scalar_objective() -> int:
        return ev.max * n * n + ev.sum

    current = scalar_objective()
    best = current
    best_edges = ev.edges()
    n_steps = steps if steps is not None else ANNEAL_STEPS_PER_NODE * n
    # geometric cooling from "accepts most moves" to "effectively greedy":
    # t0 scales with n^2 because the flattened objective does.
    t0 = max(1.0, 0.5 * n * n)
    t_end = 0.01
    cool = (t_end / t0) ** (1.0 / max(1, n_steps - 1))
    temperature = t0
    accepted = proposals = 0
    while proposals < n_steps:
        if (
            deadline is not None
            and not proposals & _TIME_CHECK_MASK
            and time.perf_counter() > deadline
        ):
            break
        proposals += 1
        a, b = candidates[int(rng.integers(len(candidates)))]
        temperature *= cool
        if b in adj[a]:
            continue
        path = tree_path(adj, a, b)
        cycle = list(zip(path, path[1:]))
        x, y = cycle[int(rng.integers(len(cycle)))]
        ev.add_edge(a, b)
        ev.remove_edge(x, y)
        cand = scalar_objective()
        delta = cand - current
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = cand
            accepted += 1
            if current < best:
                best = current
                best_edges = ev.edges()
        else:  # revert
            ev.add_edge(x, y)
            ev.remove_edge(a, b)
    obs.count("opt.anneal.proposals", proposals)
    obs.count("opt.anneal.accepted", accepted)
    edges = np.array(best_edges, dtype=np.int64).reshape(-1, 2)
    return Topology(pos, edges)
