"""Certified branch-and-bound solver for minimum-interference topologies.

Search strategy
---------------
The optimum lives in the finite candidate-radii space of
:mod:`repro.opt.candidates`. The solver brackets it from both sides:

- **upper bound** — the seeded annealing + local-search heuristic
  (:func:`repro.opt.heuristic.heuristic_opt`) supplies a connected witness
  whose measured interference certifies ``OPT <= ub`` by exhibition;
- **lower bound** — the combinatorial floor of :mod:`repro.opt.bounds`,
  then an incremental decision search: for ``k = lb, lb + 1, ...`` a
  depth-first search over candidate radii decides whether *any* connected
  assignment keeps every victim's coverage at most ``k``. Each exhausted
  ``k`` raises the proven bound by one; the first feasible ``k`` *is* the
  optimum (everything below was refuted).

The decision search prunes with four admissible rules, each counted in
:mod:`repro.obs`:

- **coverage** — disks only grow as radii are assigned; a victim already
  past ``k`` kills the subtree (``opt.prune.coverage``);
- **forced future** — every unassigned node must take at least its
  nearest-neighbour distance, so its minimal disk is added before
  descending (``opt.prune.forced``);
- **optimistic connectivity** — with assigned radii fixed and unassigned
  radii at their maximum candidate, the admissible edge set is the union
  of all completions; if even that graph is disconnected, no completion
  connects (``opt.prune.connectivity``);
- **isolation / symmetry** — an assigned node that can no longer acquire
  any partner is dead (``opt.prune.isolation``); coincident nodes are
  interchangeable, so their radii are forced non-decreasing in search
  order (``opt.prune.symmetry``).

Budgets (:class:`repro.opt.OptConfig`) make the solver *anytime*: on
exhaustion it returns the best certified bracket instead of raising, with
``status="budget"`` and ``lower_bound`` equal to the last fully refuted
target plus one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import add

import numpy as np

from repro import obs
from repro.geometry.points import distance_matrix
from repro.interference.receiver import graph_interference
from repro.model.topology import Topology
from repro.opt.bounds import combinatorial_lower_bound
from repro.opt.candidates import candidate_radii, coverage_masks, maximal_edges
from repro.opt.certificate import Certificate, instance_digest
from repro.opt.config import _TIME_CHECK_MASK, OptConfig
from repro.opt.heuristic import heuristic_opt
from repro.utils import check_positions

#: Hard cap on the exact search's instance size. Beyond this, use the
#: heuristic + combinatorial bounds bracket (``repro opt`` does this
#: automatically via budgets).
SOLVER_MAX_NODES = 24


class _BudgetExhausted(Exception):
    pass


class _Budget:
    """Shared node/time budget across all decision searches of one solve."""

    __slots__ = ("node_budget", "deadline", "expanded")

    def __init__(self, cfg: OptConfig):
        self.node_budget = cfg.node_budget
        self.deadline = (
            time.perf_counter() + cfg.time_budget_s
            if cfg.time_budget_s is not None
            else None
        )
        self.expanded = 0

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _BudgetExhausted

    def tick(self) -> None:
        self.expanded += 1
        if self.node_budget is not None and self.expanded > self.node_budget:
            raise _BudgetExhausted
        if (self.expanded & _TIME_CHECK_MASK) == 0:
            self.check_deadline()


@dataclass(frozen=True)
class OptOutcome:
    """Result of :func:`solve_opt`: a certified bracket and its witness.

    ``status`` is ``"optimal"`` (``lower_bound == value == OPT``) or
    ``"budget"`` (search interrupted; ``lower_bound <= OPT <= value``
    still holds and is certified).
    """

    value: int
    lower_bound: int
    status: str
    topology: Topology
    certificate: Certificate
    stats: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.value


def _canonical_witness(pos, dist, radii, tolerance):
    """Shrink a radius vector to the fixpoint of 'maximal edges -> derived
    radii' so certificates always store ``edges == E(r)`` with stable
    radii. Interference never increases along the way."""
    r = np.asarray(radii, dtype=np.float64).copy()
    while True:
        topo = Topology(pos, maximal_edges(dist, r, tolerance=tolerance))
        r2 = np.asarray(topo.radii, dtype=np.float64)
        if np.array_equal(r2, r):
            return topo, r
        r = r2


def solve_opt(
    positions,
    *,
    unit: float = 1.0,
    config: OptConfig | None = None,
) -> OptOutcome:
    """Certified minimum-interference topology over ``positions``.

    Raises ``ValueError`` for unconnectable instances or ``n``
    beyond :data:`SOLVER_MAX_NODES`.
    """
    cfg = config or OptConfig()
    # the time budget covers the whole solve, bounds and heuristic included
    budget = _Budget(cfg)
    pos = check_positions(positions)
    n = pos.shape[0]
    if n > SOLVER_MAX_NODES:
        raise ValueError(
            f"exact search limited to n <= {SOLVER_MAX_NODES}, got {n}; "
            "use heuristic_opt + combinatorial_lower_bound for a bracket"
        )
    if n <= 1:
        topo = Topology(pos, ())
        cert = Certificate(
            value=0,
            lower_bound=0,
            lower_bound_method="combinatorial",
            radii=tuple(0.0 for _ in range(n)),
            edges=(),
            unit=unit,
            digest=instance_digest(pos, unit=unit),
            stats={},
        )
        return OptOutcome(0, 0, "optimal", topo, cert, {"nodes_expanded": 0})

    tol = cfg.tolerance
    dist = distance_matrix(pos)
    stats: dict[str, int | float] = {
        "nodes_expanded": 0,
        "prune_coverage": 0,
        "prune_forced": 0,
        "prune_connectivity": 0,
        "prune_isolation": 0,
        "prune_symmetry": 0,
        "bound_improvements": 0,
        "searches": 0,
    }
    t_start = time.perf_counter()
    with obs.span("opt.solve", n=n) as sp:
        lb0 = combinatorial_lower_bound(pos, unit=unit, tolerance=tol)
        ub, _heur_topo = heuristic_opt(
            pos, unit=unit, config=cfg, _deadline=budget.deadline
        )
        stats["heuristic_value"] = ub
        stats["combinatorial_lb"] = lb0
        # the heuristic witness, in canonical maximal-E(r) form (radii and
        # measured interference are unchanged: tree edges survive in E(r))
        witness_topo, witness_radii = _canonical_witness(
            pos, dist, _heur_topo.radii, tol
        )

        proven_lb = lb0
        status = "optimal"
        search = _DecisionSearch(pos, dist, unit=unit, tolerance=tol, stats=stats)
        try:
            k = lb0
            while k < ub:
                # the heuristic or the previous search may have used up the
                # time budget; the tick only reads the clock every 256 nodes
                budget.check_deadline()
                stats["searches"] += 1
                with obs.span("opt.search", k=k):
                    found = search.feasible(k, budget)
                if found is None:
                    proven_lb = k + 1
                    stats["bound_improvements"] += 1
                    obs.count("opt.bound.improvements")
                    k += 1
                else:
                    witness_topo, witness_radii = _canonical_witness(
                        pos, dist, found, tol
                    )
                    ub = int(graph_interference(witness_topo))
                    break
            # loop invariant: entering iteration k means proven_lb == k, so
            # a found witness (measuring k) and a completed loop (last
            # refute at ub - 1) both land on proven_lb == ub == OPT
        except _BudgetExhausted:
            status = "budget"
        proven_lb = min(proven_lb, ub)
        stats["nodes_expanded"] = budget.expanded
        obs.count("opt.nodes.expanded", budget.expanded)
        stats["wall_s"] = time.perf_counter() - t_start
        sp.set(status=status, value=int(ub), lower_bound=int(proven_lb))

    method = "search" if proven_lb > lb0 else "combinatorial"
    cert = Certificate(
        value=int(ub),
        lower_bound=int(proven_lb),
        lower_bound_method=method,
        radii=tuple(float(r) for r in witness_radii),
        edges=tuple((int(u), int(v)) for u, v in witness_topo.edges),
        unit=float(unit),
        digest=instance_digest(pos, unit=unit),
        stats={k: v for k, v in stats.items()},
    )
    return OptOutcome(
        value=int(ub),
        lower_bound=int(proven_lb),
        status=status,
        topology=witness_topo,
        certificate=cert,
        stats=stats,
    )


class _DecisionSearch:
    """Reusable decision procedure: is some connected assignment with
    coverage at most ``k`` reachable? Nodes are searched most-constrained
    first (largest forced disk), which triggers the coverage prunings as
    early as possible.

    The state lives in Python ints used as bitsets over the search order
    (``n <= SOLVER_MAX_NODES``): ``out[u]`` is the set ``u``'s disk covers
    (its largest candidate disk while unassigned) and ``inbound[v]`` the
    assigned nodes whose disks cover ``v``. Edge ``{a, b}`` of ``E(r)``
    exists iff ``b`` is in ``out[a] & inbound[a]``. Every set comes from
    the :func:`coverage_masks` booleans, so each check decides exactly
    what the dense distance comparisons decide and the search tree is
    unchanged.
    """

    def __init__(self, pos, dist, *, unit, tolerance, stats):
        self.n = n = pos.shape[0]
        self.stats = stats
        cands_orig = candidate_radii(dist, unit=unit, tolerance=tolerance)
        if any(c.size == 0 for c in cands_orig):
            raise ValueError(
                "some node cannot reach anybody within the unit range; "
                "the instance is never connectable"
            )
        forced_size = np.array([c[0] for c in cands_orig], dtype=np.float64)
        self.order = np.argsort(-forced_size, kind="stable")
        pos = pos[self.order]
        dist = dist[np.ix_(self.order, self.order)]
        cands = candidate_radii(dist, unit=unit, tolerance=tolerance)
        masks = coverage_masks(dist, cands, tolerance=tolerance)
        self.cands = [c.tolist() for c in cands]
        #: per (node, candidate): the covered nodes as an index tuple (for
        #: the counts) and as a bitset (for the partner/connectivity checks)
        self.cover_idx = [
            [tuple(np.flatnonzero(row).tolist()) for row in m] for m in masks
        ]
        self.cover = [
            [sum(1 << v for v in idx) for idx in rows] for rows in self.cover_idx
        ]
        self.max_cover = [rows[-1] for rows in self.cover]
        #: max_in[a]: the nodes whose largest candidate disk covers ``a``
        self.max_in = [
            sum(1 << b for b in range(n) if self.max_cover[b] >> a & 1)
            for a in range(n)
        ]
        self.forced_suffix = [[0] * n for _ in range(n + 1)]
        for u in range(n - 1, -1, -1):
            row = list(self.forced_suffix[u + 1])
            for v in self.cover_idx[u][0]:
                row[v] += 1
            self.forced_suffix[u] = row
        # coincident-node symmetry: identical positions are interchangeable
        self.same_as_prev = [False] + [
            bool(np.all(pos[u] == pos[u - 1])) for u in range(1, n)
        ]

    def feasible(self, k: int, budget: _Budget) -> np.ndarray | None:
        """Radius vector (original node order) with coverage <= ``k`` and
        ``E(r)`` connected, or ``None`` if no such assignment exists."""
        n = self.n
        full = (1 << n) - 1
        counts = [0] * n
        chosen = [0.0] * n
        out = list(self.max_cover)
        inbound = [0] * n
        cands = self.cands
        cover_idx = self.cover_idx
        cover = self.cover
        max_cover = self.max_cover
        max_in = self.max_in
        forced_suffix = self.forced_suffix
        same_as_prev = self.same_as_prev
        stats = self.stats

        def isolation_ok(u_done: int, unassigned: int) -> bool:
            # every assigned node must still admit >= 1 partner: a node
            # whose disk reaches nobody willing can never get an edge. A
            # partner of v is unassigned or covers v back.
            if not out[u_done] & (unassigned | inbound[u_done]):
                return False
            # assigned nodes reaching u_done that u_done does not reach back
            rest = inbound[u_done] & ~out[u_done]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if not out[v] & (unassigned | inbound[v]):
                    return False
            return True

        def reaches_all(unassigned: int) -> bool:
            # BFS from node 0 over E(r): assigned nodes at their chosen
            # radii, unassigned ones at their largest candidate
            seen = stack = 1
            while stack:
                low = stack & -stack
                stack ^= low
                a = low.bit_length() - 1
                nxt = out[a] & (inbound[a] | unassigned & max_in[a]) & ~seen
                seen |= nxt
                stack |= nxt
            return seen == full

        def dfs(u: int) -> bool:
            if u == n:  # all assigned: the BFS runs over E(r) itself
                return reaches_all(0)
            budget.tick()
            if max(map(add, counts, forced_suffix[u])) > k:
                stats["prune_forced"] += 1
                obs.count("opt.prune.forced")
                return False
            floor = chosen[u - 1] if same_as_prev[u] else 0.0
            bit = 1 << u
            unassigned = full >> (u + 1) << (u + 1)
            last = len(cands[u]) - 1
            for j, r in enumerate(cands[u]):
                if r < floor:
                    stats["prune_symmetry"] += 1
                    obs.count("opt.prune.symmetry")
                    continue
                victims = cover_idx[u][j]
                # counts never exceed k, so only a covered node can overflow
                if any(counts[v] >= k for v in victims):
                    # larger candidates cover supersets: all further j fail
                    stats["prune_coverage"] += 1
                    obs.count("opt.prune.coverage")
                    break
                for v in victims:
                    counts[v] += 1
                    inbound[v] |= bit
                chosen[u] = r
                out[u] = cover[u][j]
                if not isolation_ok(u, unassigned):
                    stats["prune_isolation"] += 1
                    obs.count("opt.prune.isolation")
                elif j < last and not reaches_all(unassigned):
                    # the optimistic graph is the union of every
                    # completion's E(r): disconnected means none connects
                    stats["prune_connectivity"] += 1
                    obs.count("opt.prune.connectivity")
                elif dfs(u + 1):
                    return True
                for v in victims:
                    counts[v] -= 1
                    inbound[v] ^= bit
            chosen[u] = 0.0
            out[u] = max_cover[u]
            return False

        if dfs(0):
            radii = np.zeros(n, dtype=np.float64)
            radii[self.order] = chosen
            return radii
        return None
