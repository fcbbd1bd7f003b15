"""Sort-once topology construction against frozen copies of its sorts.

The construction layer used to order edges with stable and multi-key
sorts: a stable argsort in ``edge_order``, a two-key ``lexsort`` in the
:class:`~repro.topologies.ranking.NeighborTable`, LIFE's coverage order,
Yao's cone groups and ``GridIndex.query_pairs``. Each is now one unstable
argsort over a unique key (or a sort of the tied positions only), NNF is
a least-rank ``np.minimum.at`` and the EMST reads the UDG's cached ranks.
A unique key has exactly one sorted order, so every output must equal the
copies below bit for bit: on seeded uniform, blob and highway instances,
lattices with exact length ties, coincident and isolated nodes, m = 0 and
m = 1, and XTC link qualities with ties. ``edge_order`` is also fuzzed
against ``np.argsort(kind="stable")`` on heavily tied weights with
``-0.0`` and NaN. The copies double as the references of
``benchmarks/bench_topology_construction.py``.
"""

from __future__ import annotations

import contextlib
import importlib
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.geometry import spatial
from repro.geometry.generators import (
    grid_points,
    random_blobs,
    random_highway,
    random_uniform_square,
)
from repro.geometry.spatial import GridIndex
from repro.graphs.mst import edge_order, euclidean_mst_edges, inverse_permutation
from repro.interference.sender import edge_coverage
from repro.model.udg import unit_disk_graph
from repro.topologies import build
from repro.topologies.greedy_spanner import spanner_edges
from repro.topologies.nnf import nearest_neighbor_edges
from repro.topologies.ranking import NeighborTable, run_heads
from repro.topologies.xtc import xtc_with_quality
from repro.topologies.yao import yao_graph
from repro.utils import check_edge_array, check_positions
from repro.utils.validation import check_key_span, edge_keys, edges_from_keys

# -- the frozen sorts ----------------------------------------------------------


def frozen_edge_order(weights, edges):
    edges = np.asarray(edges)
    if len(weights) != edges.shape[0]:
        raise ValueError("weights and edges differ in length")
    if edges.shape[0] > 1:
        keys = edge_keys(edges, int(edges[:, 1].max()) + 1)
        if not np.all(keys[1:] >= keys[:-1]):
            raise ValueError("edges must be in lexicographic (lo, hi) order")
    return np.argsort(weights, kind="stable")


def frozen_edge_ranks(weights, edges):
    order = frozen_edge_order(weights, edges)
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


class FrozenNeighborTable(NeighborTable):
    """The two-key ``lexsort`` table; the query methods are inherited."""

    def __init__(self, udg, weights=None):
        self.udg = udg
        edges, m = udg.edges, udg.n_edges
        if weights is None:
            weights = udg.edge_lengths
        self.rank = frozen_edge_ranks(weights, edges)
        src, edge = edges.T.ravel(), np.tile(np.arange(m), 2)
        order = np.lexsort((self.rank[edge], src))
        self.src, self.edge = src[order], edge[order]
        self.dst = edges[:, ::-1].T.ravel()[order]
        self.slot = np.argsort(order).reshape(2, m).T
        self.indptr = np.r_[0, np.cumsum(np.bincount(src, minlength=udg.n))]


def frozen_nnf_edges(udg):
    """NNF as the head of every table row."""
    return FrozenNeighborTable(udg).leading_edges(1)


def frozen_euclidean_mst_edges(positions, candidate_edges=None):
    pos = check_positions(positions)
    n = pos.shape[0]
    if candidate_edges is None:
        cand = np.stack(np.triu_indices(n, k=1), axis=1)
    else:
        cand = check_edge_array(candidate_edges, n, name="candidate_edges")
    if cand.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    d = pos[cand[:, 0]] - pos[cand[:, 1]]
    rank = frozen_edge_ranks(np.hypot(d[:, 0], d[:, 1]), cand)
    graph = coo_matrix((rank + 1.0, (cand[:, 0], cand[:, 1])), shape=(n, n))
    forest = minimum_spanning_tree(graph.tocsr()).tocoo()
    keys = np.minimum(forest.row, forest.col).astype(np.int64) * n
    keys += np.maximum(forest.row, forest.col)
    return edges_from_keys(np.sort(keys), n)


def frozen_coverage_order(udg):
    ranks = frozen_edge_ranks(udg.edge_lengths, udg.edges)
    return np.lexsort((ranks, edge_coverage(udg)))


def frozen_yao_edges(udg, k=6):
    table = FrozenNeighborTable(udg)
    sector = 2.0 * math.pi / k
    cone = np.minimum((table.directions() / sector).astype(np.int64), k - 1)
    order = np.lexsort((cone, table.src))
    heads = run_heads(table.src[order] * np.int64(k) + cone[order], 1)
    return udg.edges[np.unique(table.edge[order][heads])]


def frozen_query_pairs(index, centers, radii):
    centers = check_positions(centers, name="centers")
    radii = spatial._radii(radii, centers.shape[0])
    qs = [np.empty(0, dtype=np.int64)]
    ps = [np.empty(0, dtype=np.int64)]
    for q, t in index._batch_hits(centers[:, 0], centers[:, 1], radii):
        qs.append(q)
        ps.append(index._order[t])
    qq = np.concatenate(qs)
    hits = np.concatenate(ps)
    order = np.lexsort((hits, qq))
    return qq[order], hits[order]


#: registered builders that read nothing but the neighbour table, by module
TABLE_BUILDERS = {
    "knn3": importlib.import_module("repro.topologies.knn"),
    "xtc": importlib.import_module("repro.topologies.xtc"),
    "cbtc": importlib.import_module("repro.topologies.cbtc"),
    "lmst": importlib.import_module("repro.topologies.lmst"),
}
life = importlib.import_module("repro.topologies.life")


@contextlib.contextmanager
def frozen_table(module):
    """Build with ``module``'s ``NeighborTable`` swapped for the frozen one."""
    saved = module.NeighborTable
    module.NeighborTable = FrozenNeighborTable
    try:
        yield
    finally:
        module.NeighborTable = saved


def frozen_build(name, udg):
    """Edges of ``name`` built from the frozen sorts (the table builders,
    NNF, Yao and EMST)."""
    if name == "nnf":
        return frozen_nnf_edges(udg)
    if name == "emst":
        return frozen_euclidean_mst_edges(udg.positions, udg.edges)
    if name == "yao6":
        return frozen_yao_edges(udg, 6)
    with frozen_table(TABLE_BUILDERS[name]):
        return build(name, udg).edges


FROZEN_BUILDERS = ("nnf", "emst", "yao6", *TABLE_BUILDERS)


# -- instances -------------------------------------------------------------------


def _instances():
    out = []
    for seed in range(4):
        n = 60 + 70 * seed
        side = math.sqrt(n / 3.0)
        out.append((f"uniform{seed}", random_uniform_square(n, side=side, seed=seed)))
        blobs = random_blobs(n, side=side, blobs=4, spread=0.8, seed=seed)
        out.append((f"blobs{seed}", blobs))
        out.append((f"highway{seed}", random_highway(n, max_gap=0.6, seed=seed)))
        # integer lattice draws: exact length ties and coincident nodes
        lattice = np.random.default_rng(40 + seed).integers(0, 8, size=(n, 2))
        out.append((f"lattice{seed}", lattice * 0.25))
    for spacing in (0.5, math.sqrt(0.5), 1.0):
        out.append((f"grid@{spacing:.3f}", grid_points(9, 11, spacing=spacing)))
    base = random_uniform_square(40, side=2.0, seed=7)
    out.append(("coincident", np.concatenate([base, base[:15], base[:5]])))
    out.append(("isolated", np.concatenate([base, [[50.0, 50.0], [-40.0, 9.0]]])))
    out.append(("m0", np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])))
    out.append(("m1", np.array([[0.0, 0.0], [0.5, 0.0], [7.0, 7.0]])))
    out.append(("m1-pair", np.array([[1.0, 1.0], [1.0, 1.0]])))
    out.append(("single", np.array([[0.3, 0.4]])))
    return [(label, unit_disk_graph(pos)) for label, pos in out]


@pytest.fixture(scope="module")
def instances():
    return _instances()


def _tied_quality(udg):
    """An XTC link quality with many exact ties: lengths on a coarse scale."""
    return np.round(udg.edge_lengths * 4.0) / 4.0


# -- edge order --------------------------------------------------------------------


class TestEdgeOrder:
    def test_lengths_and_ranks(self, instances):
        for label, udg in instances:
            want = frozen_edge_order(udg.edge_lengths, udg.edges)
            got = edge_order(udg.edge_lengths, udg.edges)
            assert np.array_equal(got, want), label
            ranks = frozen_edge_ranks(udg.edge_lengths, udg.edges)
            assert np.array_equal(udg._ranks, ranks), label
            # the greedy spanner's length order is the ranks' inverse
            assert np.array_equal(inverse_permutation(udg._ranks), want), label

    def test_cached_ranks_are_read_only(self, instances):
        udg = instances[0][1]
        assert udg._ranks is udg._ranks
        with pytest.raises(ValueError):
            udg._ranks[0] = 0

    def test_instances_have_exact_ties(self, instances):
        tied = [
            label
            for label, udg in instances
            if np.unique(udg.edge_lengths).size < udg.n_edges
        ]
        assert {"lattice0", "coincident", "grid@1.000"} <= set(tied)

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzz_against_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 40))
        edges = np.stack(np.triu_indices(k, k=1), axis=1)
        m = int(rng.integers(0, edges.shape[0] + 1))
        edges = edges[:m]
        w = rng.integers(-2, 3, size=m).astype(np.float64)
        w[(w == 0) & (rng.random(m) < 0.5)] = -0.0
        w[rng.random(m) < rng.choice([0.0, 0.1, 0.5])] = np.nan
        np.testing.assert_array_equal(
            edge_order(w, edges), np.argsort(w, kind="stable")
        )
        ints = rng.integers(0, 3, size=m)
        np.testing.assert_array_equal(
            edge_order(ints, edges), np.argsort(ints, kind="stable")
        )

    @pytest.mark.parametrize(
        "weights",
        [
            [0.0, -0.0, 0.0, -0.0],
            [np.nan, np.nan, np.nan],
            [np.nan, 1.0, np.nan, 1.0, -0.0],
            [2.0, 2.0, 1.0, 1.0, 1.0],
            [np.inf, -np.inf, np.inf, np.nan, -np.inf],
            [3, 1, 3, 1, 2],
        ],
    )
    def test_tie_runs(self, weights):
        w = np.asarray(weights)
        edges = np.stack(np.triu_indices(5, k=1), axis=1)[: w.size]
        want = np.argsort(w, kind="stable")
        np.testing.assert_array_equal(edge_order(w, edges), want)

    def test_large_heavily_tied(self):
        rng = np.random.default_rng(3)
        edges = np.stack(np.triu_indices(400, k=1), axis=1)
        w = rng.integers(0, 50, size=edges.shape[0]).astype(np.float64)
        np.testing.assert_array_equal(
            edge_order(w, edges), np.argsort(w, kind="stable")
        )


# -- neighbour table, NNF, EMST ------------------------------------------------------


def _assert_tables_equal(got, want, label):
    for field in ("rank", "src", "edge", "dst", "slot", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and np.array_equal(a, b), (label, field)


class TestNeighborTable:
    def test_length_table(self, instances):
        for label, udg in instances:
            _assert_tables_equal(NeighborTable(udg), FrozenNeighborTable(udg), label)

    def test_tied_quality_table(self, instances):
        for label, udg in instances:
            q = _tied_quality(udg)
            _assert_tables_equal(
                NeighborTable(udg, q), FrozenNeighborTable(udg, q), label
            )

    def test_xtc_tied_quality(self, instances):
        for label, udg in instances:
            q = dict(zip(map(tuple, udg.edges.tolist()), _tied_quality(udg)))
            got = xtc_with_quality(udg, lambda a, b: q[(a, b)]).edges
            with frozen_table(TABLE_BUILDERS["xtc"]):
                want = xtc_with_quality(udg, lambda a, b: q[(a, b)]).edges
            assert np.array_equal(got, want), label


class TestBuilders:
    def test_nnf(self, instances):
        for label, udg in instances:
            got = nearest_neighbor_edges(udg)
            assert np.array_equal(got, frozen_nnf_edges(udg)), label
            assert np.array_equal(build("nnf", udg).edges, got), label

    def test_emst(self, instances):
        for label, udg in instances:
            want = frozen_euclidean_mst_edges(udg.positions, udg.edges)
            assert np.array_equal(build("emst", udg).edges, want), label
            got = euclidean_mst_edges(udg.positions, candidate_edges=udg.edges)
            assert np.array_equal(got, want), label

    def test_emst_complete_graph(self, instances):
        for label, udg in instances:
            if udg.n <= 200:
                want = frozen_euclidean_mst_edges(udg.positions)
                assert np.array_equal(euclidean_mst_edges(udg.positions), want), label

    @pytest.mark.parametrize("k", [1, 4, 6, 8])
    def test_yao(self, instances, k):
        for label, udg in instances:
            got = yao_graph(udg, k=k).edges
            assert np.array_equal(got, frozen_yao_edges(udg, k)), label

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_table_builders(self, instances, name):
        for label, udg in instances:
            want = frozen_build(name, udg)
            assert np.array_equal(build(name, udg).edges, want), label

    def test_coverage_order(self, instances):
        for label, udg in instances:
            want = frozen_coverage_order(udg)
            assert np.array_equal(life._coverage_order(udg), want), label

    def test_lise(self, instances):
        for label, udg in instances[::3]:
            order = frozen_coverage_order(udg)
            lise_edges = spanner_edges(udg, order, 2.0)
            assert np.array_equal(build("lise2", udg).edges, lise_edges), label


# -- grid queries ----------------------------------------------------------------------


class TestQueryPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_disks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        pos = random_uniform_square(n, side=6.0, seed=seed)
        pos = np.concatenate([pos, pos[: n // 5]])  # coincident points
        index = GridIndex(pos, cell_size=float(rng.choice([0.3, 1.0, 4.0])))
        q = int(rng.integers(0, 60))
        centers = np.concatenate([pos[: q // 2], rng.uniform(-2, 8, (q - q // 2, 2))])
        radii = rng.choice([0.0, 0.2, 1.0, 3.0, np.inf], size=q)
        got = index.query_pairs(centers, radii)
        want = frozen_query_pairs(index, centers, radii)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)

    def test_empty_index_and_no_queries(self):
        index = GridIndex(np.empty((0, 2)), cell_size=1.0)
        for a in index.query_pairs(np.zeros((3, 2)), 1.0):
            assert a.dtype == np.int64 and a.size == 0
        index = GridIndex(random_uniform_square(20, side=2.0, seed=1), 1.0)
        for a in index.query_pairs(np.empty((0, 2)), 1.0):
            assert a.dtype == np.int64 and a.size == 0


class TestKeySpan:
    def test_int64_bound(self):
        check_key_span(1 << 63, "test")
        with pytest.raises(ValueError, match="overflow int64"):
            check_key_span((1 << 63) + 1, "test")
