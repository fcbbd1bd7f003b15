"""The dense coverage kernels against frozen copies of their literal forms.

``pairwise_within``, the brute interference kernel (and ``coverage_counts``
and ``coverage_matrix``, which share its blocks), ``edge_coverage`` and the
RNG lune test used to evaluate ``np.hypot(dx, dy) <= r`` (``< reach`` for
the lune) on every pair. They now decide coverage through
:class:`repro.geometry.spatial.DiskCover`, and CBTC bisects every node's
prefix at once instead of one node at a time. The copies below are those
forms as they were; every output must match them bit for bit, on the
instances where a squared-distance shortcut goes wrong: d = r to within a
few ulps, denormal gaps, r = 0, coincident points, lattices at r equal to
the spacing and huge coordinates. The module runs with RuntimeWarnings as
errors: the kernels silence their own overflow and underflow.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_blobs,
    random_uniform_square,
)
from repro.geometry.points import pairwise_within
from repro.interference.receiver import (
    RTOL,
    coverage_counts,
    coverage_matrix,
    node_interference,
)
from repro.interference.sender import edge_coverage
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies.cbtc import cbtc
from repro.topologies.ranking import NeighborTable
from repro.topologies.rng import relative_neighborhood_graph
from tests.test_model_udg import BOUNDARY_PAIR

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# --- the frozen literal forms -------------------------------------------


def literal_pairwise_within(pos, radius):
    x, y = pos[:, 0], pos[:, 1]
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    ii, jj = np.nonzero(d <= radius)
    keep = ii < jj
    return np.stack([ii[keep], jj[keep]], axis=1)


def literal_covers(topology, rtol, atol):
    """``covers[u, v]``: the brute kernel's block predicate, unblocked."""
    pos = topology.positions
    r_eff = topology.radii * (1.0 + rtol) + atol
    x, y = pos[:, 0], pos[:, 1]
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    covered = d <= r_eff[:, None]
    np.fill_diagonal(covered, False)
    return covered


def literal_edge_coverage(topology, include_endpoints, rtol, atol):
    pos = topology.positions
    x, y = pos[:, 0], pos[:, 1]
    u, v = topology.edges[:, 0], topology.edges[:, 1]
    reach = (topology.edge_lengths * (1.0 + rtol) + atol)[:, None]
    covered = (np.hypot(x - x[u, None], y - y[u, None]) <= reach) | (
        np.hypot(x - x[v, None], y - y[v, None]) <= reach
    )
    if not include_endpoints:
        rows = np.arange(u.size)
        covered[rows, u] = False
        covered[rows, v] = False
    return covered.sum(axis=1)


def literal_rng(udg):
    pos = udg.positions
    x, y = pos[:, 0], pos[:, 1]
    u, v = udg.edges[:, 0], udg.edges[:, 1]
    rows = np.arange(u.size)
    reach = (udg.edge_lengths * (1.0 - 1e-12))[:, None]
    blocker = (np.hypot(x - x[u, None], y - y[u, None]) < reach) & (
        np.hypot(x - x[v, None], y - y[v, None]) < reach
    )
    blocker[rows, u] = False
    blocker[rows, v] = False
    return Topology(pos, udg.edges[~blocker.any(axis=1)])


def _gaps_covered(angles, alpha):
    if angles.size == 0:
        return False
    s = np.sort(angles)
    gaps = np.diff(s, append=s[0] + 2.0 * math.pi)
    return bool(gaps.max() <= alpha + 1e-12)


def loop_cbtc(udg, alpha):
    """CBTC with its per-node bisection loop."""
    table = NeighborTable(udg)
    ang = table.directions()
    reached = np.zeros(table.src.size, dtype=bool)
    for start, stop in zip(table.indptr[:-1].tolist(), table.indptr[1:].tolist()):
        lo, hi = 1, stop - start
        if hi and _gaps_covered(ang[start:stop], alpha):
            while lo < hi:
                mid = (lo + hi) // 2
                if _gaps_covered(ang[start : start + mid], alpha):
                    hi = mid
                else:
                    lo = mid + 1
        reached[start : start + hi] = True
    return Topology(udg.positions, udg.edges[np.unique(table.edge[reached])])


# --- checks ----------------------------------------------------------------

TOLERANCES = [(RTOL, 0.0), (0.0, 0.0), (1e-12, 1e-300)]


def assert_pairs_match(pos, radius):
    with np.errstate(over="ignore", under="ignore"):
        want = literal_pairwise_within(pos, radius)
    got = pairwise_within(pos, radius)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    return want


def assert_kernels_match(topology):
    """Interference, coverage counts and matrix, edge coverage and the RNG
    lune test of ``topology`` equal their literal forms."""
    with np.errstate(over="ignore", under="ignore"):
        covers = {tol: literal_covers(topology, *tol) for tol in TOLERANCES}
        cov = {
            (tol, ends): literal_edge_coverage(topology, ends, *tol)
            for tol in TOLERANCES
            for ends in (False, True)
        }
        rng = literal_rng(topology)
    for (rtol, atol), want in covers.items():
        got = node_interference(topology, method="brute", rtol=rtol, atol=atol)
        np.testing.assert_array_equal(got, want.sum(axis=0))
        interferers, footprint = coverage_counts(topology, rtol=rtol, atol=atol)
        np.testing.assert_array_equal(interferers, want.sum(axis=0))
        np.testing.assert_array_equal(footprint, want.sum(axis=1))
    np.testing.assert_array_equal(coverage_matrix(topology), covers[RTOL, 0.0])
    for ((rtol, atol), ends), want in cov.items():
        got = edge_coverage(topology, include_endpoints=ends, rtol=rtol, atol=atol)
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(relative_neighborhood_graph(topology).edges, rng.edges)


def ring(center, r, ks, seed):
    """Points at distance ``r * (1 + k * 2**-52)`` from ``center``, one per
    ``k``, at seeded angles."""
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=len(ks))
    d = r * (1.0 + np.asarray(ks, dtype=np.float64) * 2.0**-52)
    return np.stack([center[0] + d * np.cos(theta), center[1] + d * np.sin(theta)], 1)


ULPS = list(range(-8, 9))
SCALES = [1.0, 0.7, 1e-3, 123.456, 1e-120, 1e120]


class TestPinnedPair:
    def test_pairwise_within(self):
        d = BOUNDARY_PAIR[1] - BOUNDARY_PAIR[0]
        assert np.hypot(d[0], d[1]) == 1.0 and d @ d > 1.0
        np.testing.assert_array_equal(assert_pairs_match(BOUNDARY_PAIR, 1.0), [[0, 1]])

    def test_kernels_at_tolerance_zero(self):
        # the edge has length exactly 1: every radius is a tie at rtol = 0
        pad = np.array([[25.0, 11.0], [19.85587333228916, 12.19031602760207]])
        pos = np.concatenate([BOUNDARY_PAIR, pad])
        assert_kernels_match(Topology(pos, [[0, 1], [0, 3]]))


class TestUlpBoundary:
    @pytest.mark.parametrize("r", SCALES)
    def test_pairwise_within_on_rings(self, r):
        pos = np.concatenate([[[0.0, 0.0]], ring((0.0, 0.0), r, ULPS, seed=1)])
        want = assert_pairs_match(pos, r)
        # pairs with the center straddle the boundary
        hub = want[want[:, 0] == 0, 1]
        assert 0 < hub.size < len(ULPS)

    @pytest.mark.parametrize("r", SCALES)
    def test_kernels_on_a_star_at_its_own_radius(self, r):
        # the hub's radius is exactly r (one neighbour at distance r on an
        # axis); the ring's nodes sit r(1 ± k ulp) away and have their own
        # edges of length ~r, whose tests tie too
        hub = np.array([[0.0, 0.0], [r, 0.0]])
        pos = np.concatenate([hub, ring((0.0, 0.0), r, ULPS, seed=2)])
        n = pos.shape[0]
        edges = [[0, 1]] + [[i, i + 1] for i in range(2, n - 1, 2)]
        assert_kernels_match(Topology(pos, edges))

    @pytest.mark.parametrize("r", [1.0, 1e-3, 1e90])
    def test_lune_witnesses_at_the_reach(self, r):
        # u = origin, v = (r, 0): witnesses at reach(1 ± k ulp) from u,
        # inside v's disk, decide the strict lune test alone
        reach = r * (1.0 - 1e-12)
        theta = np.linspace(-0.9, 0.9, len(ULPS))
        d = reach * (1.0 + np.asarray(ULPS) * 2.0**-52)
        w = np.stack([d * np.cos(theta), d * np.sin(theta)], 1)
        for i in range(len(ULPS)):
            pos = np.concatenate([[[0.0, 0.0], [r, 0.0]], w[i : i + 1]])
            udg = Topology(pos, [[0, 1], [0, 2], [1, 2]])
            assert_kernels_match(udg)


class TestExtremes:
    @pytest.mark.parametrize(
        "pos",
        [
            exponential_chain(24),
            exponential_chain(60),
            # the two ends of n = 1024: denormal gaps, then gaps near 1
            exponential_chain(1024)[np.r_[0:40, 1004:1024]],
        ],
        ids=["n24", "n60", "n1024_ends"],
    )
    def test_normalized_exponential_chain(self, pos):
        n = pos.shape[0]
        gaps = np.diff(pos[:, 0])
        for radius in [0.0, 1.0, gaps[1], gaps[n // 2], 5e-324, 1e-310]:
            assert_pairs_match(pos, radius)
        udg = unit_disk_graph(pos, method="brute")
        assert_kernels_match(udg)
        # nearest-neighbour links: radii equal the denormal gaps
        assert_kernels_match(Topology(pos, [[i, i + 1] for i in range(n - 1)]))

    def test_zero_radius_and_coincident_points(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 5e-324]])
        np.testing.assert_array_equal(assert_pairs_match(pos, 0.0), [[0, 1], [2, 3]])
        assert_pairs_match(pos, 5e-324)
        # zero-length edges: r = 0 disks that still cover coincident nodes
        assert_kernels_match(Topology(pos, [[0, 1], [2, 3]]))
        assert_kernels_match(Topology(pos, [[0, 1], [1, 2], [3, 4]]))

    @pytest.mark.parametrize("spacing", [1.0, 0.1, 3.0, 1e-200])
    def test_lattice_at_its_spacing(self, spacing):
        pos = grid_points(7, 7, spacing=spacing)
        assert_pairs_match(pos, spacing)
        assert_pairs_match(pos, spacing * math.sqrt(2.0))
        udg = Topology(pos, literal_pairwise_within(pos, spacing))
        assert_kernels_match(udg)
        assert_kernels_match(
            Topology(pos, literal_pairwise_within(pos, spacing * math.sqrt(2.0)))
        )

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_huge_coordinates(self, scale):
        # squared deltas overflow; the deltas themselves stay finite
        pos = random_uniform_square(40, side=0.4, seed=5) * scale
        for radius in [0.1 * scale, 0.2 * scale, np.inf]:
            assert_pairs_match(pos, radius)
        with np.errstate(over="ignore"):
            udg = Topology(pos, literal_pairwise_within(pos, 0.15 * scale))
        assert_kernels_match(udg)


class TestSeededInstances:
    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_and_blobs(self, seed):
        n = 60 + 25 * seed
        side = math.sqrt(n / 4.0)
        for pos in (
            random_uniform_square(n, side=side, seed=seed),
            random_blobs(n, side=side, blobs=5, spread=0.5, seed=seed),
        ):
            for radius in (0.5, 1.0, 2.5):
                assert_pairs_match(pos, radius)
            assert_kernels_match(unit_disk_graph(pos))

    def test_more_rows_than_one_block(self):
        # pairwise_within and the brute kernel chunk their rows
        pos = random_uniform_square(2100, side=40.0, seed=9)
        assert_pairs_match(pos, 1.0)
        udg = unit_disk_graph(pos)
        with np.errstate(over="ignore", under="ignore"):
            want = literal_covers(udg, RTOL, 0.0)
        got = node_interference(udg, method="brute")
        np.testing.assert_array_equal(got, want.sum(axis=0))


ALPHAS = [2.0 * math.pi, math.pi, 2.0 * math.pi / 3.0, math.pi / 2.0, 0.3, 0.05]


def cbtc_instances():
    rng = np.random.default_rng(3)
    out = {}
    for seed in range(3):
        n = 50 + 30 * seed
        side = math.sqrt(n / 3.0)
        out[f"uniform{seed}"] = random_uniform_square(n, side=side, seed=seed)
        out[f"blobs{seed}"] = random_blobs(n, side=side, blobs=4, spread=0.4, seed=seed)
    # isolated nodes far away, plus coincident neighbours
    base = random_uniform_square(40, side=3.0, seed=11)
    out["isolated_coincident"] = np.concatenate(
        [base, base[:6], [[100.0, 100.0], [-50.0, 7.0]]]
    )
    # a chain: no full ring covers a cone below pi
    out["chain"] = np.stack([np.arange(20) * 0.5, np.zeros(20)], 1)
    out["lattice"] = grid_points(6, 6, spacing=1.0)
    out["jitter"] = rng.uniform(0.0, 2.0, size=(30, 2))
    return out


class TestVectorizedCbtc:
    @pytest.mark.parametrize("name", sorted(cbtc_instances()))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_the_per_node_loop(self, name, alpha):
        udg = unit_disk_graph(cbtc_instances()[name])
        want = loop_cbtc(udg, alpha)
        np.testing.assert_array_equal(cbtc(udg, alpha=alpha).edges, want.edges)

    def test_empty_and_edgeless(self):
        for pos in (np.empty((0, 2)), np.array([[0.0, 0.0], [5.0, 5.0]])):
            udg = unit_disk_graph(pos)
            assert cbtc(udg).n_edges == loop_cbtc(udg, 1.0).n_edges == 0

    def test_small_alpha_reaches_every_neighbour(self):
        # with alpha below every gap no prefix covers: all edges are kept
        udg = unit_disk_graph(cbtc_instances()["uniform0"])
        np.testing.assert_array_equal(cbtc(udg, alpha=1e-6).edges, udg.edges)
