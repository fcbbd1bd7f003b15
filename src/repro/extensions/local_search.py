"""Spanning-tree local search for minimum interference (2-D heuristic).

Starts from any connected subtopology of the UDG (default: the Euclidean
MST), then repeatedly tries *edge swaps*: insert a non-tree UDG edge,
remove an edge of the created cycle, keep the swap if it lowers the
lexicographic objective ``(I(G), sum of I(v))``. The secondary sum term
lets the search traverse plateaus of equal maximum interference, which is
where most of the improvement on random instances comes from.

Candidate evaluation uses :class:`TreeSwapEvaluator`, shared with the
simulated-annealing heuristic of :mod:`repro.opt.heuristic`: one edge
insertion or removal costs O(victims whose coverage changes), not a
recompute.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque

import numpy as np

from repro.interference.receiver import ATOL, RTOL
from repro.model.topology import Topology
from repro.utils import as_generator


def tree_path(adj: list[set[int]], a: int, b: int) -> list[int]:
    """Unique a-b path in a tree given its adjacency sets.

    Shared with the simulated-annealing heuristic of
    :mod:`repro.opt.heuristic`, which proposes the same edge-swap moves.
    """
    parent = {a: -1}
    q = deque([a])
    while q:
        u = q.popleft()
        if u == b:
            break
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                q.append(v)
    path = [b]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class TreeSwapEvaluator:
    """Exact ``(I(G), sum of I(v))`` of a UDG subgraph under edge edits.

    Coverage is the interference tracker's predicate: ``u`` covers ``v``
    iff ``u`` has an edge and ``hypot(p_v - p_u) <= r_u * (1 + RTOL) +
    ATOL``, with ``r_u`` the distance to ``u``'s farthest neighbour, so
    the counts equal :class:`repro.interference.InterferenceTracker`'s.

    Every admissible radius of ``u`` is at most its farthest UDG
    neighbour's distance, so ``u``'s cover is always a prefix of its
    *ball*: the nodes within that range, sorted by distance. A ball is
    built from one O(n) distance row the first time ``u`` gets an edge,
    together with ``u``'s per-neighbour distances; nothing ``n x n`` is
    allocated. A radius change then moves only the slice between the old
    and the new prefix, and a histogram of the counts keeps the maximum
    current, so one edit costs O(changed victims) after a bisection.
    """

    def __init__(self, udg: Topology, edges):
        n = udg.n
        self.n = n
        self.udg = udg
        self.adj: list[set[int]] = [set() for _ in range(n)]
        #: per node, distance to each UDG neighbour (built with the ball)
        self._length: list[dict[int, float] | None] = [None] * n
        self._ball_d: list[list[float] | None] = [None] * n
        self._ball_v: list[list[int] | None] = [None] * n
        #: per node, the length of its cover prefix (0 without edges)
        self._reach = [0] * n
        self.counts = [0] * n
        self._hist = [0] * (n + 1)
        self._hist[0] = n
        self.max = 0
        self.sum = 0
        for u, v in edges:
            self.adj[int(u)].add(int(v))
            self.adj[int(v)].add(int(u))
        for u in range(n):
            if self.adj[u]:
                self._refresh(u)

    def objective(self) -> tuple[int, int]:
        """``(I(G), sum of I(v))`` of the current edge set."""
        return self.max, self.sum

    def edges(self) -> list[tuple[int, int]]:
        """Current edges as sorted ``(lo, hi)`` pairs."""
        adj = self.adj
        return sorted((u, v) for u in range(self.n) for v in adj[u] if u < v)

    def add_edge(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._refresh(u)
        self._refresh(v)

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self._refresh(u)
        self._refresh(v)

    def _build_ball(self, u: int) -> dict[int, float]:
        pos = self.udg.positions
        # the tracker's distance row, so the predicate matches bit for bit
        d = np.hypot(pos[:, 0] - pos[u, 0], pos[:, 1] - pos[u, 1])
        nbrs = np.fromiter(self.udg.neighbors(u), dtype=np.int64)
        cutoff = float(d[nbrs].max()) * (1.0 + RTOL) + ATOL
        ball = np.flatnonzero(d <= cutoff)
        ball = ball[ball != u]
        ball = ball[np.argsort(d[ball], kind="stable")]
        self._ball_v[u] = ball.tolist()
        self._ball_d[u] = d[ball].tolist()
        lengths = dict(zip(nbrs.tolist(), d[nbrs].tolist()))
        self._length[u] = lengths
        return lengths

    def _refresh(self, u: int) -> None:
        """Re-derive ``u``'s cover from its current neighbours."""
        nbrs = self.adj[u]
        if nbrs:
            lengths = self._length[u]
            if lengths is None:
                lengths = self._build_ball(u)
            radius = max(lengths[v] for v in nbrs)
            reach = bisect_right(self._ball_d[u], radius * (1.0 + RTOL) + ATOL)
        else:
            reach = 0
        old = self._reach[u]
        if reach == old:
            return
        self._reach[u] = reach
        counts = self.counts
        hist = self._hist
        if reach > old:
            top = self.max
            for v in self._ball_v[u][old:reach]:
                c = counts[v]
                counts[v] = c + 1
                hist[c] -= 1
                hist[c + 1] += 1
                if c == top:
                    top += 1
            self.max = top
        else:
            for v in self._ball_v[u][reach:old]:
                c = counts[v]
                counts[v] = c - 1
                hist[c] -= 1
                hist[c - 1] += 1
            # each victim drops by one, so the maximum drops by at most one
            if not hist[self.max]:
                self.max -= 1
        self.sum += reach - old


def reduce_interference(
    udg: Topology,
    start: Topology | None = None,
    *,
    seed=None,
    _deadline: float | None = None,
) -> Topology:
    """Hill-climb edge swaps over spanning trees of ``udg``.

    Parameters
    ----------
    udg:
        The unit disk graph (candidate edge pool).
    start:
        Connected spanning subtopology to improve; defaults to the
        Euclidean MST of ``udg``. Non-tree starts are first pruned to a
        spanning tree (extra edges only ever add interference).

    The search makes full passes over the candidate edges in a fresh
    random order and stops after the first pass that finds no improving
    swap: that tree is a fixed point, a further pass would find no swap
    either. ``_deadline`` (a ``time.perf_counter()`` reading, set by
    :func:`repro.opt.heuristic_opt` from the solve's time budget) is read
    before every 256th candidate edge; past it the search stops with its
    current tree, which is always a connected spanning tree.

    Returns a topology with ``I(G)`` no worse than the start's.
    """
    from repro.graphs.mst import euclidean_mst_edges
    from repro.opt.config import _TIME_CHECK_MASK  # repro.opt imports us

    pos = udg.positions
    if start is None:
        tree_edges = euclidean_mst_edges(pos, candidate_edges=udg.edges)
    else:
        if not start.is_subgraph_of(udg):
            raise ValueError("start must be a subtopology of the UDG")
        if not start.is_connected():
            raise ValueError("start must be connected")
        tree_edges = euclidean_mst_edges(pos, candidate_edges=start.edges)
    ev = TreeSwapEvaluator(udg, tree_edges)
    adj = ev.adj
    rng = as_generator(seed)
    candidates = [tuple(map(int, e)) for e in udg.edges]

    best = ev.objective()
    visited = 0
    improved = True
    while improved:
        improved = False
        order = rng.permutation(len(candidates))
        for idx in order:
            if (
                _deadline is not None
                and not visited & _TIME_CHECK_MASK
                and time.perf_counter() > _deadline
            ):
                improved = False  # out of time: keep the current tree
                break
            visited += 1
            a, b = candidates[idx]
            if b in adj[a]:
                continue
            path = tree_path(adj, a, b)
            ev.add_edge(a, b)
            swap_done = False
            for x, y in zip(path, path[1:]):
                ev.remove_edge(x, y)
                cand = ev.objective()
                if cand < best:
                    best = cand
                    swap_done = True
                    break
                ev.add_edge(x, y)
            if not swap_done:
                ev.remove_edge(a, b)
            else:
                improved = True

    return Topology(pos, np.array(ev.edges(), dtype=np.int64).reshape(-1, 2))
