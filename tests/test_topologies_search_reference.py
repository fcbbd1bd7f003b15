"""Goal-directed topology construction against frozen copies of the old code.

Four builders lost wasted work without changing an output edge: the greedy
spanner behind ``gspan2`` and ``lise2`` searches A*-directed at the other
endpoint instead of by plain bounded Dijkstra, LIFE is one minimum
spanning forest over the cached coverage ranks instead of a
``DisjointSet`` loop, and Delaunay filters int64 candidate keys with
``np.isin`` instead of Python sets and ``has_edge`` calls. The copies
below are the code before that change; every output must equal theirs on
the instances of ``tests/test_topologies_oracle.py`` and
``tests/test_topologies_sort_reference.py`` and on seeded n = 100 uniform
and blob instances. The copies double as the references of
``benchmarks/bench_topology_construction.py``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from scipy.spatial import Delaunay, QhullError

from repro.geometry.generators import random_blobs, random_uniform_square
from repro.graphs.unionfind import DisjointSet
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build
from repro.topologies.greedy_spanner import greedy_spanner
from repro.topologies.life import lise
from tests import test_topologies_oracle as oracle
from tests import test_topologies_sort_reference as sort_reference
from tests.test_topologies_sort_reference import (
    frozen_coverage_order,
    frozen_edge_order,
)

# -- the frozen builders ---------------------------------------------------------


def frozen_spanned(adj, source, target, bound):
    dist, heap = {source: 0.0}, [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in adj[x]:
            nd = d + w
            if nd > bound or nd >= dist.get(y, math.inf):
                continue
            if y == target:
                return True
            dist[y] = nd
            heapq.heappush(heap, (nd, y))
    return False


def frozen_spanner_edges(udg, order, t):
    if not t >= 1:
        raise ValueError("t must be >= 1")
    adj = [[] for _ in range(udg.n)]
    edges, lengths, keep = udg.edges.tolist(), udg.edge_lengths.tolist(), []
    for k in order.tolist():
        (u, v), length = edges[k], lengths[k]
        if not frozen_spanned(adj, u, v, t * length * (1.0 + 1e-12)):
            adj[u].append((v, length))
            adj[v].append((u, length))
            keep.append(k)
    return udg.edges[np.sort(np.array(keep, dtype=np.int64))]


def frozen_greedy_spanner(udg, t=2.0):
    order = frozen_edge_order(udg.edge_lengths, udg.edges)
    return frozen_spanner_edges(udg, order, t)


def frozen_lise(udg, t=2.0):
    return frozen_spanner_edges(udg, frozen_coverage_order(udg), t)


def frozen_life(udg):
    ds = DisjointSet(udg.n)
    edges, keep = udg.edges.tolist(), []
    for k in frozen_coverage_order(udg).tolist():
        u, v = edges[k]
        if ds.union(u, v):
            keep.append((u, v))
            if ds.n_components == 1:
                break
    return Topology(udg.positions, np.array(keep, dtype=np.int64).reshape(-1, 2)).edges


def _collinear(pos):
    if pos.shape[0] <= 2:
        return True
    centered = pos - pos.mean(axis=0)
    return bool(np.linalg.matrix_rank(centered, tol=1e-12) < 2)


def frozen_delaunay(udg):
    pos = udg.positions
    n = udg.n
    if n <= 1:
        return np.empty((0, 2), dtype=np.int64)
    if _collinear(pos):
        order = np.lexsort((pos[:, 1], pos[:, 0]))
        cand = {(int(min(a, b)), int(max(a, b))) for a, b in zip(order, order[1:])}
    else:
        try:
            tri = Delaunay(pos)
        except QhullError:
            order = np.lexsort((pos[:, 1], pos[:, 0]))
            cand = {
                (int(min(a, b)), int(max(a, b))) for a, b in zip(order, order[1:])
            }
        else:
            cand = set()
            for simplex in tri.simplices:
                for i in range(3):
                    a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                    cand.add((min(a, b), max(a, b)))
    keep = [e for e in sorted(cand) if udg.has_edge(*e)]
    return Topology(pos, np.array(keep, dtype=np.int64).reshape(-1, 2)).edges


#: registered name -> frozen builder returning the edge array
FROZEN_SEARCH = {
    "gspan2": frozen_greedy_spanner,
    "lise2": frozen_lise,
    "life": frozen_life,
    "delaunay": frozen_delaunay,
}


# -- instances -------------------------------------------------------------------


def _seeded_n100():
    out = []
    for seed in range(10):
        side = math.sqrt(100 / 4.0)
        out.append((f"uniform{seed}", random_uniform_square(100, side=side, seed=seed)))
        blobs = random_blobs(100, side=side, blobs=10, spread=0.6, seed=seed)
        out.append((f"blobs{seed}", blobs))
    return [(label, unit_disk_graph(pos)) for label, pos in out]


@pytest.fixture(scope="module")
def instances():
    return oracle._instances() + sort_reference._instances() + _seeded_n100()


def _fresh(udg):
    """A copy of ``udg`` with nothing cached."""
    return Topology(udg.positions, udg.edges)


def _searched(instances, t):
    """All instances, or for ``t = inf`` (where the frozen search labels
    whole components per edge) those of at most 60 nodes."""
    return [(label, udg) for label, udg in instances if t < math.inf or udg.n <= 60]


class TestSearchReference:
    def test_instance_mix(self, instances):
        assert len(instances) > 140
        assert any(udg.n_edges == 0 for _, udg in instances)
        assert any((udg.edge_lengths == 0.0).any() for _, udg in instances)

    @pytest.mark.parametrize("name", sorted(FROZEN_SEARCH))
    def test_registered(self, instances, name):
        for label, udg in instances:
            want = FROZEN_SEARCH[name](_fresh(udg))
            assert np.array_equal(build(name, _fresh(udg)).edges, want), label

    @pytest.mark.parametrize("t", [1.0, 3.0, math.inf])
    def test_greedy_spanner(self, instances, t):
        for label, udg in _searched(instances, t):
            want = frozen_greedy_spanner(udg, t)
            assert np.array_equal(greedy_spanner(udg, t=t).edges, want), label

    @pytest.mark.parametrize("t", [1.0, 3.0, math.inf])
    def test_lise(self, instances, t):
        for label, udg in _searched(instances, t):
            assert np.array_equal(lise(udg, t=t).edges, frozen_lise(udg, t)), label

    def test_life_and_lise_share_one_coverage_scan(self, instances, monkeypatch):
        """Building both on one UDG scans its coverage once; the cached
        ranks are read-only and invert the frozen coverage order."""
        from repro.interference import sender

        calls = []
        scan = sender.edge_coverage
        monkeypatch.setattr(
            sender, "edge_coverage", lambda topo: calls.append(1) or scan(topo)
        )
        for label, udg in instances[::7]:
            fresh = _fresh(udg)
            build("life", fresh)
            build("lise2", fresh)
            assert len(calls) == 1, label
            calls.clear()
            ranks = fresh._coverage_ranks
            assert not ranks.flags.writeable
            order = frozen_coverage_order(udg)
            assert np.array_equal(ranks[order], np.arange(udg.n_edges)), label
