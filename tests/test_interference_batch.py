"""Batch interference kernel tier: equivalence, dispatch, backends.

The contract under test: ``method="batch"`` (and the fused
multi-instance :func:`node_interference_many`) agree **bit-for-bit** with
brute/naive on every instance family, the ``auto`` dispatcher
crosses over to the batch tier, and the optional numba backend degrades
to pure numpy without changing a single count.
"""

import numpy as np
import pytest

from repro.geometry.generators import (
    cluster_with_remote,
    exponential_chain,
    random_blobs,
    random_highway,
    random_udg_connected,
    two_exponential_chains,
)
from repro.geometry.spatial import GridIndex
from repro.highway.linear import linear_chain
from repro.interference.batch import (
    HAVE_NUMBA,
    active_backend,
    node_interference_many,
)
from repro.interference.receiver import (
    ATOL,
    AUTO_BATCH_MIN_N,
    RTOL,
    _grid_cell_size,
    node_interference,
    node_interference_naive,
)
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build

TOLERANCES = [{}, {"rtol": 1e-6, "atol": 1e-9}]


def _instances():
    out = []
    for seed in range(3):
        pos = random_udg_connected(80 + 30 * seed, side=4.0, seed=seed)
        out.append(build("emst", unit_disk_graph(pos)))
    out.append(build("emst", unit_disk_graph(cluster_with_remote(60, seed=1))))
    out.append(linear_chain(exponential_chain(64)))
    pos, _ = two_exponential_chains(8)
    out.append(build("nnf", unit_disk_graph(pos, unit=512.0)))
    return out


@pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "loose"])
class TestBatchEquivalence:
    def test_batch_matches_all_kernels(self, tol):
        for topo in _instances():
            want = node_interference(topo, method="brute", **tol)
            np.testing.assert_array_equal(
                node_interference(topo, method="batch", **tol), want
            )
            if topo.n <= 150:
                np.testing.assert_array_equal(
                    node_interference_naive(topo, **tol), want
                )

    def test_many_matches_per_instance(self, tol):
        topos = _instances()
        many = node_interference_many(topos, **tol)
        assert len(many) == len(topos)
        for topo, vec in zip(topos, many):
            np.testing.assert_array_equal(
                vec, node_interference(topo, method="brute", **tol)
            )

    def test_many_handles_degenerate_instances(self, tol):
        # empty, coincident (degenerate-fallback) and regular instances
        # mixed in one fused call, in arbitrary order
        topos = [
            Topology.empty(np.zeros((0, 2))),
            Topology(np.zeros((5, 2)), [(0, 1), (2, 3)]),
            build(
                "emst",
                unit_disk_graph(random_udg_connected(50, side=3.0, seed=2)),
            ),
            Topology.empty(np.random.default_rng(1).uniform(size=(7, 2))),
        ]
        many = node_interference_many(topos, **tol)
        for topo, vec in zip(topos, many):
            np.testing.assert_array_equal(
                vec, node_interference(topo, method="brute", **tol)
            )


def _wide_instances():
    """Families above the crossover that the first net misses: highways
    (one long grid row under the area clamp), Gaussian blobs and a
    normalized exponential chain."""
    out = []
    for n in (2 * AUTO_BATCH_MIN_N, 1000):
        udg = unit_disk_graph(random_highway(n, max_gap=1.0, seed=n))
        out += [udg, build("emst", udg), build("nnf", udg)]
    pos = random_blobs(600, side=14.0, blobs=6, spread=1.0, seed=3)
    udg = unit_disk_graph(pos)
    out += [udg, build("emst", udg), build("knn3", udg)]
    out.append(linear_chain(exponential_chain(2 * AUTO_BATCH_MIN_N)))
    return out


def _boundary_gadgets(k=100, seed=0, aligned=False):
    """``k`` far-apart senders, each with probes at d = r(1 +- RTOL), at
    the effective radius and one ulp past it, along both axes and a
    diagonal: every probe sits on the coverage boundary. ``aligned``
    gives every sender r = 0.5 (the grid's cell) on a lattice anchored at
    the grid origin, so the probes also sit on cell boundaries."""
    rng = np.random.default_rng(seed)
    pos, edges = [], []
    for i in range(k):
        x, y = 4.0 * (i % 10), 4.0 * (i // 10)
        r = 0.5 if aligned else float(rng.uniform(0.25, 1.0))
        u = len(pos)
        pos += [(x, y), (x + r, y)]
        edges.append((u, u + 1))
        # the radius the topology derives from the stored partner
        r = float(np.hypot(r + x - x, 0.0))
        reff = r * (1.0 + RTOL) + ATOL
        for d in (r * (1 + RTOL), r * (1 - RTOL), reff, np.nextafter(reff, 2.0)):
            pos += [(x - d, y), (x, y + d), (x + d / np.sqrt(2), y - d / np.sqrt(2))]
    if aligned:
        pos.append((-4.0, -4.0))  # an isolated anchor fixes the grid origin
    return Topology(np.array(pos), edges)


@pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "loose"])
class TestWideEquivalence:
    def test_families_match_all_kernels(self, tol):
        topos = _wide_instances()
        many = node_interference_many(topos, **tol)
        for topo, fused in zip(topos, many):
            want = node_interference(topo, method="brute", **tol)
            np.testing.assert_array_equal(fused, want)
            np.testing.assert_array_equal(
                node_interference(topo, method="batch", **tol), want
            )
            if topo.n <= 2 * AUTO_BATCH_MIN_N:
                np.testing.assert_array_equal(
                    node_interference_naive(topo, **tol), want
                )

    @pytest.mark.parametrize("aligned", [False, True], ids=["random", "aligned"])
    def test_boundary_pairs_match_all_kernels(self, tol, aligned):
        topo = _boundary_gadgets(aligned=aligned)
        assert topo.n > AUTO_BATCH_MIN_N
        want = node_interference_naive(topo, **tol)
        for method in ("brute", "batch"):
            got = node_interference(topo, method=method, **tol)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(node_interference_many([topo], **tol)[0], want)
        # the construction straddles the boundary: some probes are inside
        # their sender's disk and some are not
        sender = np.arange(topo.n) // 14 * 14
        probe = np.arange(topo.n) % 14 >= 2
        gap = topo.positions[probe] - topo.positions[sender[probe]]
        r_eff = topo.radii * (1.0 + RTOL) + ATOL
        inside = np.hypot(gap[:, 0], gap[:, 1]) <= r_eff[sender[probe]]
        assert 0 < inside.sum() < inside.size


def test_highway_takes_the_area_clamp():
    # a 1-D extent no longer gets span / (4 sqrt(n)) cells: the cell is the
    # median radius, far below the old 1000-node clamp of ~6.6 units
    topo = build("emst", unit_disk_graph(random_highway(1000, max_gap=1.0, seed=1)))
    r_eff = topo.radii * (1.0 + RTOL) + ATOL
    cell = _grid_cell_size(topo.positions, topo.radii, r_eff, topo.n)
    assert cell == float(np.median(topo.radii[topo.radii > 0]))
    assert cell < np.ptp(topo.positions[:, 0]) / (4.0 * np.sqrt(topo.n)) / 5


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    import repro.geometry.spatial as spatial

    topos = _instances() + _wide_instances()[:3]
    want_vecs = [node_interference(t, method="batch") for t in topos]
    want_many = node_interference_many(topos)
    pos = random_udg_connected(300, side=6.0, seed=7)
    index = GridIndex(pos, cell_size=1.0)
    want_pairs = index.pairs_within(1.0)
    unchunked = list(index._candidates(index._xs, index._ys, np.ones(300)))
    monkeypatch.setattr(spatial, "BATCH_PAIR_CHUNK", 16)
    chunks = list(index._candidates(index._xs, index._ys, np.ones(300)))
    assert len(unchunked) == 1 and len(chunks) > 100
    np.testing.assert_array_equal(
        np.concatenate([t for _, t in chunks]), unchunked[0][1]
    )
    np.testing.assert_array_equal(index.pairs_within(1.0), want_pairs)
    for topo, vec in zip(topos, want_vecs):
        np.testing.assert_array_equal(node_interference(topo, method="batch"), vec)
    for got, vec in zip(node_interference_many(topos), want_many):
        np.testing.assert_array_equal(got, vec)


class TestDispatch:
    def test_auto_constant_sane(self):
        assert isinstance(AUTO_BATCH_MIN_N, int)
        assert 100 <= AUTO_BATCH_MIN_N <= 10_000

    def test_auto_uses_batch_above_crossover(self):
        from repro import obs

        pos = random_udg_connected(AUTO_BATCH_MIN_N + 50, side=8.0, seed=0)
        topo = build("emst", unit_disk_graph(pos))
        with obs.capture() as trace:
            node_interference(topo, method="auto")
        assert trace.counters.get("interference.method.batch", 0) == 1

    def test_auto_uses_brute_below_crossover(self):
        from repro import obs

        pos = random_udg_connected(40, side=3.0, seed=1)
        topo = build("emst", unit_disk_graph(pos))
        with obs.capture() as trace:
            node_interference(topo, method="auto")
        assert trace.counters.get("interference.method.brute", 0) == 1

    def test_unknown_method_rejected(self):
        topo = build(
            "emst", unit_disk_graph(random_udg_connected(20, side=2.0, seed=0))
        )
        with pytest.raises(ValueError, match="unknown method"):
            node_interference(topo, method="vectorized")


class TestBackendSelection:
    def test_active_backend_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_BACKEND", raising=False)
        assert active_backend() == ("numba" if HAVE_NUMBA else "numpy")

    def test_forced_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "numpy")
        assert active_backend() == "numpy"

    def test_forced_numba_without_numba_raises(self, monkeypatch):
        if HAVE_NUMBA:
            pytest.skip("numba installed; forcing it is legal here")
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "numba")
        with pytest.raises(RuntimeError, match="numba"):
            active_backend()

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_BATCH_BACKEND"):
            active_backend()

    def test_numpy_backend_used_under_force(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "numpy")
        topo = build(
            "emst", unit_disk_graph(random_udg_connected(60, side=3.0, seed=4))
        )
        np.testing.assert_array_equal(
            node_interference(topo, method="batch"),
            node_interference(topo, method="brute"),
        )

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numba_backend_bit_identical(self, monkeypatch):
        for topo in _instances():
            monkeypatch.setenv("REPRO_BATCH_BACKEND", "numba")
            got = node_interference(topo, method="batch")
            monkeypatch.setenv("REPRO_BATCH_BACKEND", "numpy")
            want = node_interference(topo, method="batch")
            np.testing.assert_array_equal(got, want)


class TestObsAttribution:
    def test_batch_span_and_counters(self):
        from repro import obs

        topo = build(
            "emst", unit_disk_graph(random_udg_connected(80, side=4.0, seed=5))
        )
        with obs.capture() as trace:
            node_interference(topo, method="batch")
        span = next(
            s
            for s, _ in trace.snapshot().iter_spans()
            if s.name == "interference.node"
        )
        assert span.attrs["method"] == "batch"
        assert trace.counters.get("interference.method.batch", 0) == 1

    def test_many_span(self):
        from repro import obs

        topos = _instances()[:3]
        with obs.capture() as trace:
            node_interference_many(topos)
        span = next(
            s
            for s, _ in trace.snapshot().iter_spans()
            if s.name == "interference.node_many"
        )
        assert span.attrs["instances"] == 3
        assert trace.counters.get("interference.method.batch_many", 0) == 1

    def test_high_coverage_falls_back_to_brute(self):
        from repro import obs

        # every disk covers most of the extent: the grid cannot prune
        pos = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 2))
        topo = Topology(pos, [(i, (i + 20) % 40) for i in range(20)])
        with obs.capture() as trace:
            vec = node_interference(topo, method="batch")
        assert trace.counters.get("interference.batch.fallback_coverage", 0) == 1
        np.testing.assert_array_equal(
            vec, node_interference(topo, method="brute")
        )


class TestBatchQueryProtocol:
    """batch_covered_counts over the BatchQuery seam (satellite of the
    routing redesign): any conforming index must produce bit-identical
    counts to the GridIndex fast path."""

    class BruteIndex:
        """Minimal conforming BatchQuery: O(n*m) dense predicate."""

        def __init__(self, positions):
            self.positions = np.asarray(positions, dtype=np.float64)

        def __len__(self):
            return self.positions.shape[0]

        def _hits(self, centers, radii):
            centers = np.asarray(centers, dtype=np.float64)
            radii = np.broadcast_to(
                np.asarray(radii, dtype=np.float64), (centers.shape[0],)
            )
            d = np.hypot(
                centers[:, None, 0] - self.positions[None, :, 0],
                centers[:, None, 1] - self.positions[None, :, 1],
            )
            return d <= radii[:, None]

        def query_pairs(self, centers, radii):
            qq, hits = np.nonzero(self._hits(centers, radii))
            return qq.astype(np.int64), hits.astype(np.int64)

        def count_within(self, centers, radii):
            return self._hits(centers, radii).sum(axis=1).astype(np.int64)

    def test_runtime_checkable(self):
        from repro.geometry import BatchQuery, GridIndex

        pos = np.random.default_rng(0).uniform(0.0, 4.0, size=(16, 2))
        assert isinstance(GridIndex(pos, 1.0), BatchQuery)
        assert isinstance(self.BruteIndex(pos), BatchQuery)
        assert not isinstance(object(), BatchQuery)

    def test_generic_index_matches_grid_index(self):
        from repro.geometry import GridIndex
        from repro.interference.batch import batch_covered_counts

        rng = np.random.default_rng(5)
        pos = rng.uniform(0.0, 6.0, size=(120, 2))
        r_eff = rng.uniform(0.3, 1.2, size=120)
        fast = batch_covered_counts(GridIndex(pos, 1.0), r_eff)
        slow = batch_covered_counts(self.BruteIndex(pos), r_eff)
        np.testing.assert_array_equal(fast, slow)

    def test_empty_index(self):
        from repro.interference.batch import batch_covered_counts

        counts = batch_covered_counts(
            self.BruteIndex(np.empty((0, 2))), np.empty(0)
        )
        assert counts.size == 0
