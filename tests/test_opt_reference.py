"""Differential suite: the bitset OPT search and the shared tree-swap
evaluator against frozen references.

The references below are the dense numpy decision search, the annealing
walk and the edge-swap hill-climb as they were before the rewrite, kept
inline and test-only. The rewrite must reproduce them exactly: the same
witness, the same expansion count and the same prune counters for every
target ``k``; the same accepted moves and the same edges for the
heuristics; the same certificate from ``solve_opt``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import obs
from repro.extensions import local_search
from repro.extensions.local_search import reduce_interference, tree_path
from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_udg_connected,
    two_exponential_chains,
)
from repro.geometry.points import distance_matrix
from repro.graphs.mst import euclidean_mst_edges
from repro.graphs.unionfind import DisjointSet
from repro.interference.incremental import InterferenceTracker
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.opt import OptConfig, heuristic, solver
from repro.opt.bounds import combinatorial_lower_bound
from repro.opt.candidates import candidate_radii, coverage_masks
from repro.opt.config import DEFAULT_TOLERANCE
from repro.opt.heuristic import ANNEAL_STEPS_PER_NODE, _anneal
from repro.opt.solver import _Budget, _BudgetExhausted, _DecisionSearch, solve_opt
from repro.utils import as_generator

# -- frozen references ---------------------------------------------------------


class RefDecisionSearch:
    """The dense numpy decision search."""

    def __init__(self, pos, dist, *, unit, tolerance, stats):
        self.n = pos.shape[0]
        self.unit = unit
        self.tol = tolerance
        self.stats = stats
        cands_orig = candidate_radii(dist, unit=unit, tolerance=tolerance)
        if any(c.size == 0 for c in cands_orig):
            raise ValueError(
                "some node cannot reach anybody within the unit range; "
                "the instance is never connectable"
            )
        forced_size = np.array([c[0] for c in cands_orig], dtype=np.float64)
        self.order = np.argsort(-forced_size, kind="stable")
        self.pos = pos[self.order]
        self.dist = dist[np.ix_(self.order, self.order)]
        self.cands = candidate_radii(self.dist, unit=unit, tolerance=tolerance)
        bool_masks = coverage_masks(self.dist, self.cands, tolerance=tolerance)
        self.masks = [m.astype(np.int64) for m in bool_masks]
        n = self.n
        forced = np.array([self.masks[u][0] for u in range(n)], dtype=np.int64)
        self.forced_suffix = np.zeros((n + 1, n), dtype=np.int64)
        for u in range(n - 1, -1, -1):
            self.forced_suffix[u] = self.forced_suffix[u + 1] + forced[u]
        self.max_cand = np.array([c[-1] for c in self.cands], dtype=np.float64)
        self.same_as_prev = np.zeros(n, dtype=bool)
        for u in range(1, n):
            self.same_as_prev[u] = bool(np.all(self.pos[u] == self.pos[u - 1]))

    def feasible(self, k, budget):
        n = self.n
        counts = np.zeros(n, dtype=np.int64)
        chosen = np.zeros(n, dtype=np.float64)
        tol = 1.0 + self.tol
        dist = self.dist
        cands = self.cands
        masks = self.masks
        stats = self.stats

        def admits_partner(v, u_done):
            rv = chosen[v] * tol
            for w in range(n):
                if w == v or dist[v, w] > rv:
                    continue
                if w > u_done or chosen[w] * tol >= dist[v, w]:
                    return True
            return False

        def isolation_ok(u_done):
            if not admits_partner(u_done, u_done):
                return False
            ru = chosen[u_done] * tol
            for v in range(u_done):
                if dist[v, u_done] <= chosen[v] * tol and ru < dist[v, u_done]:
                    if not admits_partner(v, u_done):
                        return False
            return True

        idx = np.arange(n)

        def optimistic_connected(u_done):
            r_opt = np.where(idx <= u_done, chosen, self.max_cand) * tol
            adj = dist <= np.minimum(r_opt[:, None], r_opt[None, :])
            visited = adj[0].copy()
            visited[0] = True
            frontier = visited
            while True:
                nxt = adj[frontier].any(axis=0) & ~visited
                if not nxt.any():
                    return bool(visited.all())
                visited = visited | nxt
                frontier = nxt

        def connected_exact():
            ds = DisjointSet(n)
            for a in range(n):
                ra = chosen[a] * tol
                for b in range(a + 1, n):
                    if dist[a, b] <= min(ra, chosen[b] * tol):
                        ds.union(a, b)
                        if ds.n_components == 1:
                            return True
            return ds.n_components == 1

        def dfs(u):
            if u == n:
                return connected_exact()
            budget.tick()
            if (counts + self.forced_suffix[u] > k).any():
                stats["prune_forced"] += 1
                obs.count("opt.prune.forced")
                return False
            floor = 0.0
            if self.same_as_prev[u]:
                floor = chosen[u - 1]
            for j in range(cands[u].size):
                if cands[u][j] < floor:
                    stats["prune_symmetry"] += 1
                    obs.count("opt.prune.symmetry")
                    continue
                add = masks[u][j].astype(np.int64)
                counts_new = counts + add
                if counts_new.max() > k:
                    stats["prune_coverage"] += 1
                    obs.count("opt.prune.coverage")
                    break
                counts[:] = counts_new
                chosen[u] = cands[u][j]
                ok = True
                if not isolation_ok(u):
                    stats["prune_isolation"] += 1
                    obs.count("opt.prune.isolation")
                    ok = False
                elif cands[u][j] < self.max_cand[u] and not optimistic_connected(u):
                    stats["prune_connectivity"] += 1
                    obs.count("opt.prune.connectivity")
                    ok = False
                if ok and dfs(u + 1):
                    return True
                counts[:] = counts_new - add
            chosen[u] = 0.0
            return False

        if dfs(0):
            out = np.zeros(n, dtype=np.float64)
            out[self.order] = chosen
            return out
        return None


def ref_node_radius(adj, pos, u):
    if not adj[u]:
        return 0.0
    return max(float(np.hypot(*(pos[u] - pos[v]))) for v in adj[u])


def ref_anneal(udg, *, seed, steps=None):
    pos = udg.positions
    n = udg.n
    tree_edges = euclidean_mst_edges(pos, candidate_edges=udg.edges)
    adj = [set() for _ in range(n)]
    for u, v in tree_edges:
        adj[u].add(int(v))
        adj[v].add(int(u))
    tracker = InterferenceTracker.from_topology(Topology(pos, tree_edges))
    rng = as_generator(seed)
    candidates = [tuple(map(int, e)) for e in udg.edges]
    if not candidates or n <= 2:
        return Topology(pos, tree_edges)

    def scalar_objective():
        counts = tracker.node_interference()
        return int(counts.max()) * n * n + int(counts.sum())

    def apply_edge_change(u, v, *, add):
        if add:
            adj[u].add(v)
            adj[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
        for w in (u, v):
            r = ref_node_radius(adj, pos, w)
            if adj[w]:
                tracker.set_radius(w, r)
            else:
                tracker.deactivate(w)

    current = scalar_objective()
    best = current
    best_edges = {tuple(sorted(e)) for e in map(tuple, tree_edges)}
    n_steps = steps if steps is not None else ANNEAL_STEPS_PER_NODE * n
    t0 = max(1.0, 0.5 * n * n)
    t_end = 0.01
    cool = (t_end / t0) ** (1.0 / max(1, n_steps - 1))
    temperature = t0
    accepted = 0
    for _ in range(n_steps):
        a, b = candidates[int(rng.integers(len(candidates)))]
        temperature *= cool
        if b in adj[a]:
            continue
        path = tree_path(adj, a, b)
        cycle = list(zip(path, path[1:]))
        x, y = cycle[int(rng.integers(len(cycle)))]
        apply_edge_change(a, b, add=True)
        apply_edge_change(x, y, add=False)
        cand = scalar_objective()
        delta = cand - current
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = cand
            accepted += 1
            if current < best:
                best = current
                best_edges = {
                    (min(u, v), max(u, v)) for u in range(n) for v in adj[u] if u < v
                }
        else:
            apply_edge_change(x, y, add=True)
            apply_edge_change(a, b, add=False)
    obs.count("opt.anneal.proposals", n_steps)
    obs.count("opt.anneal.accepted", accepted)
    edges = np.array(sorted(best_edges), dtype=np.int64).reshape(-1, 2)
    return Topology(pos, edges)


def ref_reduce_interference(udg, start=None, *, max_rounds=30, seed=None):
    pos = udg.positions
    n = udg.n
    if start is None:
        tree_edges = euclidean_mst_edges(pos, candidate_edges=udg.edges)
    else:
        if not start.is_subgraph_of(udg):
            raise ValueError("start must be a subtopology of the UDG")
        if not start.is_connected():
            raise ValueError("start must be connected")
        tree_edges = euclidean_mst_edges(pos, candidate_edges=start.edges)
    adj = [set() for _ in range(n)]
    for u, v in tree_edges:
        adj[u].add(int(v))
        adj[v].add(int(u))
    tracker = InterferenceTracker.from_topology(Topology(pos, tree_edges))
    rng = as_generator(seed)
    candidates = [tuple(map(int, e)) for e in udg.edges]

    def objective():
        counts = tracker.node_interference()
        return int(counts.max()), int(counts.sum())

    def apply_edge_change(u, v, *, add):
        if add:
            adj[u].add(v)
            adj[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
        for w in (u, v):
            r = ref_node_radius(adj, pos, w)
            if adj[w]:
                tracker.set_radius(w, r)
            else:
                tracker.deactivate(w)

    best = objective()
    stale = 0
    while stale < max_rounds:
        improved = False
        order = rng.permutation(len(candidates))
        for idx in order:
            a, b = candidates[idx]
            if b in adj[a]:
                continue
            path = tree_path(adj, a, b)
            apply_edge_change(a, b, add=True)
            swap_done = False
            for x, y in zip(path, path[1:]):
                apply_edge_change(x, y, add=False)
                cand = objective()
                if cand < best:
                    best = cand
                    swap_done = True
                    break
                apply_edge_change(x, y, add=True)
            if not swap_done:
                apply_edge_change(a, b, add=False)
            else:
                improved = True
        stale = 0 if improved else stale + 1
        if not improved:
            break
    edges = sorted((min(u, v), max(u, v)) for u in range(n) for v in adj[u] if u < v)
    return Topology(pos, np.array(edges, dtype=np.int64).reshape(-1, 2))


# -- instances -----------------------------------------------------------------


def _coincident(n_distinct, copies, seed):
    """A connected uniform instance with some nodes duplicated in place,
    each copy right after its original so the search order keeps them
    adjacent and the symmetry rule fires."""
    base = random_udg_connected(n_distinct, side=1.4, seed=seed)
    rows = []
    for i, p in enumerate(base):
        rows.append(p)
        if i < copies:
            rows.append(p)
    return np.array(rows)


EXP_CHAINS = {f"exp{n}": exponential_chain(n) for n in range(4, 17)}
#: seeded uniform draws, plus lattices: their equal distances come out of
#: hypot an ulp apart, so coverage hinges on the RTOL/ATOL slack
SMALL = {
    **{
        f"uni{n}s{seed}": random_udg_connected(n, side=side, seed=seed)
        for n, side in ((6, 1.0), (8, 1.2), (10, 1.5), (12, 1.6))
        for seed in range(3)
    },
    "grid3x3": grid_points(3, 3, spacing=0.3),
    "grid3x4": grid_points(3, 4, spacing=0.7),
}
COINCIDENT = {
    f"dup{n}c{c}s{seed}": _coincident(n, c, seed)
    for n, c, seed in ((5, 2, 1), (6, 3, 2), (7, 2, 3), (8, 1, 4))
}
#: expansions allowed per target k; a search cut here must stop at the
#: same node in both implementations
NODE_CAP = 4000


def _search(pos, cls, k, *, node_budget=None):
    """One decision search: (witness radii, None or 'budget'; expansions;
    prune counters)."""
    tol = DEFAULT_TOLERANCE
    stats = {
        f"prune_{kind}": 0
        for kind in ("coverage", "forced", "connectivity", "isolation", "symmetry")
    }
    search = cls(pos, distance_matrix(pos), unit=1.0, tolerance=tol, stats=stats)
    budget = _Budget(OptConfig(node_budget=node_budget))
    try:
        found = search.feasible(k, budget)
    except _BudgetExhausted:
        found = "budget"
    return found, budget.expanded, stats


def _assert_same_searches(pos, *, node_budget=None):
    """Both searches for every target k from the combinatorial floor up to
    the first feasible one; returns the rewrite's rows (k, *search)."""
    rows = []
    for k in range(combinatorial_lower_bound(pos, tolerance=DEFAULT_TOLERANCE), len(pos)):
        found, expanded, stats = _search(pos, _DecisionSearch, k, node_budget=node_budget)
        rfound, rexpanded, rstats = _search(pos, RefDecisionSearch, k, node_budget=node_budget)
        assert (expanded, stats) == (rexpanded, rstats), k
        if isinstance(rfound, np.ndarray):
            assert np.array_equal(found, rfound), k
        else:
            assert found is rfound or found == rfound, k
        rows.append((k, found, expanded, stats))
        if found is not None:
            break
    return rows


# -- decision search -----------------------------------------------------------


class TestDecisionSearch:
    @pytest.mark.parametrize("name", sorted(k for k in EXP_CHAINS if int(k[3:]) <= 10))
    def test_exponential_chains(self, name):
        rows = _assert_same_searches(EXP_CHAINS[name])
        assert isinstance(rows[-1][1], np.ndarray)

    @pytest.mark.parametrize("name", sorted(k for k in EXP_CHAINS if int(k[3:]) > 10))
    def test_exponential_chains_capped(self, name):
        # full searches take seconds here; the per-k cap pins the first
        # NODE_CAP expansions of every target
        _assert_same_searches(EXP_CHAINS[name], node_budget=NODE_CAP)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small(self, name):
        _assert_same_searches(SMALL[name])

    def test_coincident_nodes(self):
        # duplicates sit next to each other in the search order, so the
        # symmetry rule fires and its counter is compared too
        fired = sum(
            row[3]["prune_symmetry"]
            for pos in COINCIDENT.values()
            for row in _assert_same_searches(pos)
        )
        assert fired > 0

    @pytest.mark.parametrize("cap", [1, 7, 60, 500])
    def test_node_budget_stops_at_the_same_expansion(self, cap):
        rows = _assert_same_searches(exponential_chain(10), node_budget=cap)
        assert any(r[1] == "budget" for r in rows)


# -- heuristics ----------------------------------------------------------------


HEURISTIC_CASES = {
    **{f"uni{n}s{seed}": (random_udg_connected(n, side=side, seed=seed), 1.0)
       for n, side in ((8, 1.2), (14, 1.6), (19, 2.0), (24, 2.2))
       for seed in (0, 5)},
    "exp12": (exponential_chain(12), 1.0),
    "grid4x5": (grid_points(4, 5, spacing=0.3), 1.0),
    "grid5x5": (grid_points(5, 5, spacing=0.7), 1.0),
    "dup8": (_coincident(8, 3, 6), 1.0),
    "two_chains8": (two_exponential_chains(8)[0], float(2.0**9)),
}


class TestHeuristics:
    @pytest.mark.parametrize("name", sorted(HEURISTIC_CASES))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_anneal_matches_reference(self, name, seed):
        pos, unit = HEURISTIC_CASES[name]
        udg = unit_disk_graph(pos, unit=unit)
        with obs.capture():
            new = _anneal(udg, seed=seed)
            new_accepted = obs.snapshot().counters.get("opt.anneal.accepted")
        with obs.capture():
            ref = ref_anneal(udg, seed=seed)
            ref_accepted = obs.snapshot().counters.get("opt.anneal.accepted")
        assert np.array_equal(new.edges, ref.edges)
        assert new_accepted == ref_accepted

    @pytest.mark.parametrize("name", sorted(HEURISTIC_CASES))
    @pytest.mark.parametrize("max_rounds", [0, 1, 30])
    def test_reduce_interference_matches_reference(self, name, max_rounds):
        # every max_rounds >= 1 ran to the same fixed point; 0 skipped the
        # search, which a deadline already passed now does
        pos, unit = HEURISTIC_CASES[name]
        udg = unit_disk_graph(pos, unit=unit)
        spent = {"_deadline": 0.0} if max_rounds == 0 else {}
        new = reduce_interference(udg, seed=2, **spent)
        ref = ref_reduce_interference(udg, seed=2, max_rounds=max_rounds)
        assert np.array_equal(new.edges, ref.edges)

    def test_reduce_interference_custom_start(self):
        pos = random_udg_connected(40, side=3.0, seed=8)
        udg = unit_disk_graph(pos)
        start = Topology(pos, udg.edges[: len(udg.edges) // 2])
        if not start.is_connected():
            start = udg
        new = reduce_interference(udg, start=start, seed=1)
        ref = ref_reduce_interference(udg, start=start, seed=1)
        assert np.array_equal(new.edges, ref.edges)

    @pytest.mark.parametrize(
        "pos",
        [random_udg_connected(30, side=2.2, seed=4), grid_points(5, 6, spacing=0.3)],
        ids=["uniform", "grid"],
    )
    def test_evaluator_counts_equal_the_tracker(self, pos):
        udg = unit_disk_graph(pos)
        tree = euclidean_mst_edges(pos, candidate_edges=udg.edges)
        ev = local_search.TreeSwapEvaluator(udg, tree)
        rng = np.random.default_rng(0)
        edges = [tuple(map(int, e)) for e in udg.edges]
        for _ in range(200):
            a, b = edges[int(rng.integers(len(edges)))]
            if b in ev.adj[a]:
                ev.remove_edge(a, b)
            else:
                ev.add_edge(a, b)
            current = Topology(pos, np.array(ev.edges(), dtype=np.int64).reshape(-1, 2))
            counts = InterferenceTracker.from_topology(current).node_interference()
            assert ev.counts == counts.tolist()
            assert ev.objective() == (int(counts.max()), int(counts.sum()))


# -- the whole solve -----------------------------------------------------------


def _without_wall(cert):
    return dataclasses.replace(
        cert, stats={k: v for k, v in cert.stats.items() if k != "wall_s"}
    )


SOLVE_CASES = {
    "exp8": exponential_chain(8),
    "exp10": exponential_chain(10),
    "uni9": random_udg_connected(9, side=1.3, seed=3),
    "uni11": random_udg_connected(11, side=1.5, seed=7),
    "dup7": _coincident(6, 2, 5),
}


def _ref_anneal_no_deadline(udg, *, seed, deadline):
    # the frozen walk predates the time budget; these solves set none
    assert deadline is None
    return ref_anneal(udg, seed=seed)


def _ref_reduce_no_deadline(udg, start=None, *, seed, _deadline):
    assert _deadline is None
    return ref_reduce_interference(udg, start=start, seed=seed)


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_opt_certificate_matches_reference(name, monkeypatch):
    pos = SOLVE_CASES[name]
    cfg = OptConfig(node_budget=20_000)
    new = solve_opt(pos, config=cfg)
    monkeypatch.setattr(solver, "_DecisionSearch", RefDecisionSearch)
    monkeypatch.setattr(heuristic, "_anneal", _ref_anneal_no_deadline)
    monkeypatch.setattr(heuristic, "reduce_interference", _ref_reduce_no_deadline)
    ref = solve_opt(pos, config=cfg)
    assert _without_wall(new.certificate) == _without_wall(ref.certificate)
    assert (new.value, new.lower_bound, new.status) == (
        ref.value,
        ref.lower_bound,
        ref.status,
    )

