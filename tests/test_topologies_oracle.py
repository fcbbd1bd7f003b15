"""Differential suite: the array-native baselines against frozen references.

The references below are the per-edge and per-node loops the baselines
used before they were rebuilt on :mod:`repro.topologies.ranking` and the
bounded-search greedy spanner. They are kept here, inline and test-only,
so the rewrite is pinned edge for edge: every algorithm, every parameter
variant, over more than a hundred seeded instances, including exact
distance ties (grids, lattice draws), coincident nodes, collinear chains,
disconnected UDGs and n = 1. Needs only numpy and scipy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import Delaunay, QhullError

from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_blobs,
    random_highway,
    random_udg_connected,
    random_uniform_square,
)
from repro.graphs.core import Graph
from repro.graphs.mst import kruskal_mst
from repro.graphs.paths import dijkstra
from repro.graphs.unionfind import DisjointSet
from repro.interference.receiver import ATOL, RTOL
from repro.interference.sender import edge_coverage
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import ALGORITHMS, build, ranking
from repro.topologies.cbtc import cbtc
from repro.topologies.greedy_spanner import greedy_spanner
from repro.topologies.knn import knn_topology
from repro.topologies.life import lise
from repro.topologies.xtc import xtc_with_quality
from repro.topologies.yao import yao_graph


def _out(pos, rows) -> Topology:
    return Topology(pos, np.array(sorted(rows), dtype=np.int64).reshape(-1, 2))


# -- frozen references ---------------------------------------------------------


def ref_nnf(udg):
    rows = []
    pos = udg.positions
    for u in range(udg.n):
        nbrs = sorted(udg.neighbors(u))
        if not nbrs:
            continue
        nbrs = np.array(nbrs, dtype=np.int64)
        d = np.hypot(*(pos[nbrs] - pos[u]).T)
        v = int(nbrs[np.argmin(d)])
        rows.append((min(u, v), max(u, v)))
    return _out(pos, set(rows))


def ref_knn(udg, k=3):
    pos = udg.positions
    rows = set()
    for u in range(udg.n):
        nbrs = np.array(sorted(udg.neighbors(u)), dtype=np.int64)
        if nbrs.size == 0:
            continue
        d = np.hypot(*(pos[nbrs] - pos[u]).T)
        for idx in np.argsort(d, kind="stable")[:k]:
            v = int(nbrs[idx])
            rows.add((min(u, v), max(u, v)))
    return _out(pos, rows)


def ref_yao(udg, k=6):
    pos = udg.positions
    sector = 2.0 * math.pi / k
    rows = set()
    for u in range(udg.n):
        nbrs = np.array(sorted(udg.neighbors(u)), dtype=np.int64)
        if nbrs.size == 0:
            continue
        d = pos[nbrs] - pos[u]
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
        cone = np.minimum((ang / sector).astype(np.int64), k - 1)
        dist = np.hypot(d[:, 0], d[:, 1])
        for c in np.unique(cone):
            mask = cone == c
            v = int(nbrs[mask][np.argmin(dist[mask])])
            rows.add((min(u, v), max(u, v)))
    return _out(pos, rows)


def ref_xtc(udg, link_quality=None):
    pos = udg.positions
    if link_quality is None:
        def link_quality(a, b):
            return float(np.hypot(*(pos[a] - pos[b])))

    def rank(a, b):
        return (link_quality(a, b), min(a, b), max(a, b))

    keep = []
    for u, v in udg.edges:
        q_uv = rank(u, v)
        if not any(
            rank(u, w) < q_uv and rank(v, w) < q_uv
            for w in udg.neighbors(u) & udg.neighbors(v)
        ):
            keep.append((u, v))
    return _out(pos, keep)


def ref_lmst(udg):
    pos = udg.positions
    nominations = {u: set() for u in range(udg.n)}
    for u in range(udg.n):
        local = sorted(udg.neighbors(u) | {u})
        index = {node: i for i, node in enumerate(local)}
        g = Graph(len(local))
        for i, a in enumerate(local):
            for b in local[i + 1:]:
                if udg.has_edge(a, b):
                    g.add_edge(index[a], index[b], float(np.hypot(*(pos[a] - pos[b]))))
        for i, j in kruskal_mst(g).edges():
            a, b = local[i], local[j]
            if a == u or b == u:
                nominations[u].add((min(a, b), max(a, b)))
    rows = set()
    for u in range(udg.n):
        for e in nominations[u]:
            if e in nominations[e[0] if e[1] == u else e[1]]:
                rows.add(e)
    return _out(pos, rows)


def _gaps_covered(angles, alpha):
    if angles.size == 0:
        return False
    s = np.sort(angles)
    gaps = np.diff(s, append=s[0] + 2.0 * math.pi)
    return bool(gaps.max() <= alpha + 1e-12)


def ref_cbtc(udg, alpha=2.0 * math.pi / 3.0):
    pos = udg.positions
    rows = set()
    for u in range(udg.n):
        nbrs = np.array(sorted(udg.neighbors(u)), dtype=np.int64)
        if nbrs.size == 0:
            continue
        d = pos[nbrs] - pos[u]
        dist = np.hypot(d[:, 0], d[:, 1])
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
        reached = []
        for idx in np.argsort(dist, kind="stable"):
            reached.append(int(idx))
            if _gaps_covered(ang[reached], alpha):
                break
        for idx in reached:
            v = int(nbrs[idx])
            rows.add((min(u, v), max(u, v)))
    return _out(pos, rows)


def ref_gabriel(udg):
    pos = udg.positions
    keep = []
    for u, v in udg.edges:
        mid = (pos[u] + pos[v]) / 2.0
        rad2 = float(np.sum((pos[u] - pos[v]) ** 2)) / 4.0
        d2 = np.sum((pos - mid) ** 2, axis=1)
        d2[u] = np.inf
        d2[v] = np.inf
        if not np.any(d2 <= rad2 * (1.0 + 1e-12)):
            keep.append((u, v))
    return _out(pos, keep)


def ref_rng(udg):
    pos = udg.positions
    keep = []
    for k, (u, v) in enumerate(udg.edges):
        duv = udg.edge_lengths[k]
        du = np.hypot(*(pos - pos[u]).T)
        dv = np.hypot(*(pos - pos[v]).T)
        blocker = (du < duv * (1.0 - 1e-12)) & (dv < duv * (1.0 - 1e-12))
        blocker[u] = False
        blocker[v] = False
        if not blocker.any():
            keep.append((u, v))
    return _out(pos, keep)


def ref_emst(udg):
    pos, cand = udg.positions, udg.edges
    d = pos[cand[:, 0]] - pos[cand[:, 1]]
    ds = DisjointSet(udg.n)
    rows = []
    for k in np.argsort(np.hypot(d[:, 0], d[:, 1]), kind="stable"):
        u, v = int(cand[k, 0]), int(cand[k, 1])
        if ds.union(u, v):
            rows.append((min(u, v), max(u, v)))
            if ds.n_components == 1:
                break
    return _out(pos, rows)


def ref_delaunay(udg):
    pos = udg.positions
    if udg.n <= 1:
        return Topology(pos, ())

    def path():
        order = np.lexsort((pos[:, 1], pos[:, 0]))
        return {(int(min(a, b)), int(max(a, b))) for a, b in zip(order, order[1:])}

    centered = pos - pos.mean(axis=0)
    if pos.shape[0] <= 2 or np.linalg.matrix_rank(centered, tol=1e-12) < 2:
        cand = path()
    else:
        try:
            tri = Delaunay(pos)
        except QhullError:
            cand = path()
        else:
            cand = set()
            for simplex in tri.simplices:
                for i in range(3):
                    a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                    cand.add((min(a, b), max(a, b)))
    return _out(pos, [e for e in cand if udg.has_edge(*e)])


def ref_edge_coverage(topology, include_endpoints=False, rtol=RTOL, atol=ATOL):
    pos, edges = topology.positions, topology.edges
    out = np.zeros(edges.shape[0], dtype=np.int64)
    thresh = topology.edge_lengths * (1.0 + rtol) + atol
    for k in range(edges.shape[0]):
        u, v = edges[k]
        du = pos - pos[u]
        dv = pos - pos[v]
        covered = (np.hypot(du[:, 0], du[:, 1]) <= thresh[k]) | (
            np.hypot(dv[:, 0], dv[:, 1]) <= thresh[k]
        )
        if not include_endpoints:
            covered[u] = False
            covered[v] = False
        out[k] = int(covered.sum())
    return out


def _ref_spanner(udg, order, t):
    g = Graph(udg.n)
    keep = []
    for k in order:
        u, v = map(int, udg.edges[k])
        length = float(udg.edge_lengths[k])
        dist, _ = dijkstra(g, u)
        if dist[v] > t * length * (1.0 + 1e-12):
            g.add_edge(u, v, length)
            keep.append((u, v))
    return _out(udg.positions, keep)


def ref_greedy(udg, t=2.0):
    return _ref_spanner(udg, np.argsort(udg.edge_lengths, kind="stable"), t)


def _ref_coverage_order(udg):
    cov = ref_edge_coverage(udg)
    return sorted(
        range(udg.n_edges),
        key=lambda k: (int(cov[k]), float(udg.edge_lengths[k]), tuple(udg.edges[k])),
    )


def ref_lise(udg, t=2.0):
    return _ref_spanner(udg, _ref_coverage_order(udg), t)


def ref_life(udg):
    ds = DisjointSet(udg.n)
    keep = []
    for k in _ref_coverage_order(udg):
        u, v = map(int, udg.edges[k])
        if ds.union(u, v):
            keep.append((u, v))
            if ds.n_components == 1:
                break
    return _out(udg.positions, keep)


REFERENCES = {
    "nnf": ref_nnf,
    "emst": ref_emst,
    "gabriel": ref_gabriel,
    "rng": ref_rng,
    "yao6": ref_yao,
    "xtc": ref_xtc,
    "lmst": ref_lmst,
    "cbtc": ref_cbtc,
    "delaunay": ref_delaunay,
    "knn3": ref_knn,
    "life": ref_life,
    "lise2": ref_lise,
    "gspan2": ref_greedy,
}


# -- instances -------------------------------------------------------------------


def _instances() -> list[tuple[str, Topology]]:
    out = []
    for seed in range(16):
        n = 6 + 2 * seed
        side = math.sqrt(n / 4.0)
        out.append((f"uniform{seed}", random_uniform_square(n, side=side, seed=seed)))
        out.append(
            (f"blobs{seed}", random_blobs(n, side=side, blobs=3, spread=0.4, seed=seed))
        )
        out.append((f"udgconn{seed}", random_udg_connected(n, side=side, seed=seed)))
        # lattice draws: many exact distance ties, some coincident nodes
        lattice = np.random.default_rng(100 + seed).integers(0, 6, size=(n, 2)) * 0.25
        out.append((f"lattice{seed}", lattice.astype(np.float64)))
    for spacing in (0.25, 0.5, math.sqrt(0.5), 1.0):
        for rows, cols in ((1, 7), (3, 4), (5, 5)):
            grid = grid_points(rows, cols, spacing=spacing)
            out.append((f"grid{rows}x{cols}@{spacing:.3f}", grid))
    for n in (2, 3, 5, 8, 12, 16):
        out.append((f"expchain{n}", exponential_chain(n)))
    for seed in range(8):
        highway = random_highway(10 + 3 * seed, max_gap=1.0, seed=seed)
        out.append((f"highway{seed}", highway))
    for seed in range(6):
        base = random_uniform_square(10 + seed, side=1.5, seed=200 + seed)
        out.append((f"coincident{seed}", np.concatenate([base, base[: 3 + seed]])))
    for seed in range(6):
        a = random_uniform_square(8 + seed, side=1.2, seed=300 + seed)
        out.append((f"disconnected{seed}", np.concatenate([a, a[: 5 + seed] + 10.0])))
    out.append(("single", np.array([[0.3, 0.4]])))
    return [(label, unit_disk_graph(pos)) for label, pos in out]


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _assert_all_equal(instances, fn, ref):
    for label, udg in instances:
        ours, want = fn(udg), ref(udg)
        assert np.array_equal(ours.edges, want.edges), label


class TestOracle:
    def test_instance_count(self, instances):
        assert len(instances) >= 100
        assert any(not udg.is_connected() for _, udg in instances)

    def test_every_registered_baseline_has_a_reference(self):
        assert set(REFERENCES) == set(ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_registered(self, instances, name):
        _assert_all_equal(instances, lambda udg: build(name, udg), REFERENCES[name])

    @pytest.mark.parametrize("t", [1.0, 1.5, 3.0])
    def test_greedy_spanner(self, instances, t):
        _assert_all_equal(
            instances, lambda u: greedy_spanner(u, t=t), lambda u: ref_greedy(u, t)
        )

    @pytest.mark.parametrize("t", [1.0, 1.5, 3.0])
    def test_lise(self, instances, t):
        _assert_all_equal(instances, lambda u: lise(u, t=t), lambda u: ref_lise(u, t))

    @pytest.mark.parametrize("alpha", [math.pi / 2.0, 2.0 * math.pi])
    def test_cbtc(self, instances, alpha):
        _assert_all_equal(
            instances, lambda u: cbtc(u, alpha=alpha), lambda u: ref_cbtc(u, alpha)
        )

    @pytest.mark.parametrize("k", [4, 8])
    def test_yao(self, instances, k):
        _assert_all_equal(
            instances, lambda u: yao_graph(u, k=k), lambda u: ref_yao(u, k)
        )

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_knn(self, instances, k):
        _assert_all_equal(
            instances, lambda u: knn_topology(u, k=k), lambda u: ref_knn(u, k)
        )

    @pytest.mark.parametrize("include_endpoints", [False, True])
    def test_edge_coverage(self, instances, include_endpoints):
        for label, udg in instances:
            for topo in (udg, build("nnf", udg)):
                ours = edge_coverage(topo, include_endpoints=include_endpoints)
                want = ref_edge_coverage(topo, include_endpoints=include_endpoints)
                assert ours.dtype == want.dtype
                assert np.array_equal(ours, want), label

    def test_small_pair_blocks(self, instances, monkeypatch):
        """Splitting the witness pairs into many blocks changes nothing."""
        monkeypatch.setattr(ranking, "PAIR_BLOCK", 7)
        _assert_all_equal(instances[::5], lambda u: build("xtc", u), ref_xtc)
        _assert_all_equal(instances[::5], lambda u: build("lmst", u), ref_lmst)

    def test_xtc_noisy_quality(self, instances):
        """Distance times symmetric fading noise, drawn once per edge."""
        for label, udg in instances:
            noise = dict(
                zip(
                    map(tuple, udg.edges.tolist()),
                    np.random.default_rng(5).uniform(0.8, 1.2, udg.n_edges),
                )
            )

            def quality(a, b, pos=udg.positions, noise=noise):
                d = float(np.hypot(*(pos[a] - pos[b])))
                return d * noise[(min(a, b), max(a, b))]

            ours = xtc_with_quality(udg, quality)
            assert np.array_equal(ours.edges, ref_xtc(udg, quality).edges), label
