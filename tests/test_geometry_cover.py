"""Property suite for the coverage predicate of the grid and dense tiers.

``DiskCover(radii)(dx, dy, q)`` must return exactly
``np.hypot(dx, dy) <= radii[q]`` — bit for bit, on every input and every
broadcast shape of ``dx``, ``dy`` and ``q`` — while
deciding most pairs from ``dx² + dy²``. Each case below sits where a bare
squared comparison goes wrong: d = r to within a few ulps, squared
distances that round across r², denormal gaps that underflow, zero
radii, and deltas that overflow. The whole module runs with
RuntimeWarnings as errors: the predicate silences its own overflow and
underflow.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.spatial import COVER_BAND, DiskCover, GridIndex
from repro.interference.batch import batch_covered_counts
from tests.test_model_udg import BOUNDARY_PAIR

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = 5e-324  # the smallest subnormal


def assert_exact(dx, dy, radii, q=None):
    """``DiskCover`` equals the literal hypot predicate on these pairs."""
    dx = np.asarray(dx, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    if q is None:
        q = np.zeros(dx.size, dtype=np.int64) if radii.size == 1 else (
            np.arange(dx.size)
        )
    got = DiskCover(radii)(dx, dy, q)
    with np.errstate(all="ignore"):
        want = np.hypot(dx, dy) <= radii[q]
    assert got.dtype == bool and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    return want


def ulp_steps(x, k):
    """``x`` moved ``k`` ulps (negative: down), one nextafter at a time."""
    toward = np.inf if k > 0 else 0.0
    for _ in range(abs(k)):
        x = np.nextafter(x, toward)
    return x


RADII = [1.0, 0.7, 3.0, 1e-3, 123456.789, 1e-120, 1e120, 2.0**-449, 2.0**449]


class TestUlpBoundary:
    @pytest.mark.parametrize("r", RADII)
    def test_axis_aligned_pairs_within_64_ulps(self, r):
        ks = range(-64, 65)
        dx = np.array([ulp_steps(np.float64(r), k) for k in ks])
        want = assert_exact(dx, np.zeros_like(dx), r)
        # on an axis hypot is exact: the boundary is k = 0 itself
        np.testing.assert_array_equal(want, [k <= 0 for k in ks])
        assert_exact(np.zeros_like(dx), -dx, r)

    @pytest.mark.parametrize("r", RADII)
    def test_pairs_at_every_angle_within_64_ulps(self, r):
        rng = np.random.default_rng(7)
        k = rng.integers(-64, 65, size=20_000)
        d = r * (1.0 + k * 2.0**-52)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=k.size)
        dx, dy = d * np.cos(theta), d * np.sin(theta)
        want = assert_exact(dx, dy, r)
        assert 0 < want.sum() < want.size  # both sides of the boundary

    def test_squared_distance_rounds_across_r_squared(self):
        # pairs where dx² + dy² and hypot disagree about r = 1
        rng = np.random.default_rng(11)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=200_000)
        dx, dy = np.cos(theta), np.sin(theta)
        h = np.hypot(dx, dy)
        s = dx * dx + dy * dy
        split = (h <= 1.0) != (s <= 1.0)
        assert split.sum() > 100
        assert_exact(dx[split], dy[split], 1.0)

    def test_pinned_udg_pair(self):
        (ax, ay), (bx, by) = BOUNDARY_PAIR
        dx, dy = np.array([ax - bx, bx - ax]), np.array([ay - by, by - ay])
        assert np.all(np.hypot(dx, dy) == 1.0)
        assert np.all(dx * dx + dy * dy > 1.0)
        assert assert_exact(dx, dy, 1.0).all()
        index = GridIndex(BOUNDARY_PAIR, cell_size=1.0)
        np.testing.assert_array_equal(index.pairs_within(1.0), [[0, 1]])
        np.testing.assert_array_equal(index.count_within(BOUNDARY_PAIR, 1.0), [2, 2])


class TestExtremes:
    def test_denormal_gaps(self):
        gaps = np.array([TINY, 3 * TINY, 1e-310, 2.0**-1022, 1e-200, 1e-160, 1e-154])
        for r in [0.0, TINY, 2 * TINY, 1e-310, 1e-200, 1e-160, 2.0**-451, 1.0]:
            for k in (-2, 0, 2):
                dx = np.array([ulp_steps(g, k) if g > 0 else g for g in gaps])
                assert_exact(dx, np.zeros_like(dx), r)
                assert_exact(dx, dx, r)
                assert_exact(dx, -gaps, r)

    def test_subnormal_gap_that_underflows_is_not_inside_a_tiny_disk(self):
        # dx² underflows to 0 <= r² = 0: a bare squared test says inside
        dx = np.array([1e-170, TINY])
        assert np.all(dx * dx == 0.0)
        assert not assert_exact(dx, np.zeros(2), 0.0).any()
        dx = np.full(3, 1e-170)
        got = assert_exact(dx, dx, np.array([1e-171, 1.4e-170, 1.5e-170]), np.arange(3))
        np.testing.assert_array_equal(got, [False, False, True])

    def test_zero_radius_and_coincident_points(self):
        dx = np.array([0.0, -0.0, 0.0, TINY, 0.0, -TINY])
        dy = np.array([0.0, 0.0, -0.0, 0.0, TINY, TINY])
        want = assert_exact(dx, dy, 0.0)
        np.testing.assert_array_equal(want, [True, True, True, False, False, False])
        index = GridIndex(np.zeros((3, 2)), cell_size=1.0)
        np.testing.assert_array_equal(index.count_within(np.zeros((1, 2)), 0.0), [3])
        counts = batch_covered_counts(index, np.zeros(3))
        np.testing.assert_array_equal(counts, [2, 2, 2])

    def test_huge_radius_and_overflowing_deltas(self):
        with np.errstate(over="ignore"):
            coords = np.array([1e308, -1e308, 1e308, -1e308, 5e307, 0.0])
            dx = coords - coords[::-1]
            dy = np.array([0.0, 1e308, -1e308, 1e300, 1e308, 1e300])
        assert np.isinf(dx).any()
        for r in [1e300, 1e308, np.finfo(np.float64).max, np.inf, 2.0**451]:
            assert_exact(dx, dy, r)
            assert_exact(dy, dx, r)
        # squares overflow but the distance is finite: still exact
        dx = np.array([1e200, 1e300, -1e300, 1e154])
        assert_exact(dx, dx, np.array([1e200, 1.5e300, 1.4142135623730951e300, 1e154]),
                     np.arange(4))

    def test_radii_at_the_edges_of_the_safe_range(self):
        edges = [2.0**-450, 2.0**450]
        radii = []
        for e in edges:
            radii += [ulp_steps(e, k) for k in (-3, -1, 0, 1, 3)]
        radii = np.array(radii)
        q = np.repeat(np.arange(radii.size), 129)
        k = np.tile(np.arange(-64, 65), radii.size)
        dx = radii[q] * (1.0 + k * 2.0**-52)
        assert_exact(dx, np.zeros_like(dx), radii, q)
        assert_exact(dx * 0.6, dx * 0.8, radii, q)

    def test_negative_and_nan_inputs_match_hypot(self):
        nan = float("nan")
        dx = np.array([nan, nan, 0.0, 1.0, np.inf, 0.5])
        dy = np.array([0.0, np.inf, nan, 0.0, nan, 0.5])
        for r in [1.0, np.inf, -1.0, 0.0, nan]:
            assert_exact(dx, dy, r)

    def test_thresholds_are_per_disk_and_band_is_thin(self):
        radii = np.array([0.0, 1.0, 1e300, 2.0, -1.0, np.nan])
        cover = DiskCover(radii)
        # below the safe range nothing is inside by s, above it nothing is
        # outside by s; the other side clamps to the range's end
        assert cover.lo[0] == -np.inf and cover.hi[0] == 2.0**-900 * (1 + COVER_BAND)
        assert cover.lo[4] == -np.inf and cover.hi[4] == cover.hi[0]
        assert cover.lo[2] == 2.0**900 * (1 - COVER_BAND) and cover.hi[2] == np.inf
        assert np.isnan(cover.lo[5]) and np.isnan(cover.hi[5])
        assert cover.lo[1] < 1.0 < cover.hi[1]
        assert (cover.hi[3] - cover.lo[3]) / 4.0 == pytest.approx(2 * COVER_BAND)


class TestRandomScales:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_scales_and_near_boundary(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 500, 50_000
        radii = 10.0 ** rng.uniform(-300, 300, size=m)
        radii[rng.random(m) < 0.05] = 0.0
        q = rng.integers(0, m, size=k)
        rel = np.where(
            rng.random(k) < 0.5,
            rng.integers(-64, 65, size=k) * 2.0**-52,
            rng.uniform(-1.0, 1.0, size=k),
        )
        theta = rng.uniform(0.0, 2.0 * math.pi, size=k)
        d = radii[q] * (1.0 + rel)
        assert_exact(d * np.cos(theta), d * np.sin(theta), radii, q)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=True, width=64),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
        st.floats(min_value=0.0, allow_infinity=True, width=64),
    )
    def test_any_float_triple(self, dx, dy, r):
        assert_exact([dx], [dy], r)
        # and the same pair scaled onto its own radius
        with np.errstate(over="ignore"):
            h = float(np.hypot(dx, dy))
        if math.isfinite(h):
            assert_exact([dx, dx], [dy, dy], np.array([h, ulp_steps(h, -1)]),
                         np.arange(2))


class TestBlockCallForm:
    """One call form for every shape: a ``(rows, n)`` block of deltas with
    one disk per row (``q`` an index column or ``(row_slice, None)``, as
    the dense kernels call it), or one shared disk (a scalar ``q``). Band
    pairs must be answered at their own block positions."""

    @staticmethod
    def block(radii, cols, seed):
        """Deltas ``(rows, cols)``: half the pairs within 8 ulps of their
        row's radius, the rest anywhere in ``[0, 2r]``."""
        rng = np.random.default_rng(seed)
        rows = radii.size
        k = rng.integers(-8, 9, size=(rows, cols))
        rel = np.where(rng.random((rows, cols)) < 0.5, k * 2.0**-52,
                       rng.uniform(-1.0, 1.0, size=(rows, cols)))
        d = radii[:, None] * (1.0 + rel)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(rows, cols))
        return d * np.cos(theta), d * np.sin(theta)

    @staticmethod
    def band_pairs(cover, dx, dy, q):
        with np.errstate(all="ignore"):
            s = dx * dx + dy * dy
        return int(np.count_nonzero((s > cover.lo[q]) & (s <= cover.hi[q])))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_disk_per_row(self, seed):
        radii = np.array([1.0, 0.7, 1e-3, 1e-140, 1e140, 0.0, 2.0**-451, 3.0])
        dx, dy = self.block(radii, 300, seed)
        q = np.arange(radii.size)[:, None]
        cover = DiskCover(radii)
        got = cover(dx, dy, q)
        with np.errstate(all="ignore"):
            want = np.hypot(dx, dy) <= radii[:, None]
        assert got.shape == dx.shape and got.dtype == bool
        np.testing.assert_array_equal(got, want)
        assert self.band_pairs(cover, dx, dy, q) > 50
        assert 0 < want.sum() < want.size

    def test_row_subset_and_offset_indices(self):
        # a block of rows 3..5 of a larger disk array, as the kernels'
        # row blocks index it
        radii = np.array([5.0, 6.0, 7.0, 1.0, 1e-3, 1e100, 2.0])
        dx, dy = self.block(radii[3:6], 200, seed=4)
        want = np.hypot(dx, dy) <= radii[3:6, None]
        for q in (np.arange(3, 6)[:, None], (slice(3, 6), None)):
            np.testing.assert_array_equal(DiskCover(radii)(dx, dy, q), want)

    def test_one_shared_disk(self):
        r = 0.7
        dx, dy = self.block(np.full(6, r), 250, seed=5)
        cover = DiskCover([r])
        assert self.band_pairs(cover, dx, dy, 0) > 50
        np.testing.assert_array_equal(cover(dx, dy, 0), np.hypot(dx, dy) <= r)

    def test_broadcast_deltas(self):
        # dx varies along columns only, dy along rows only: the band is
        # read from the broadcast block
        r = 1.0
        xs = 0.6 + np.arange(-40, 41) * 2.0**-52
        ys = np.sqrt(1.0 - xs * xs)
        dx, dy = xs[None, :], ys[:, None]
        cover = DiskCover(np.full(ys.size, r))
        q = np.arange(ys.size)[:, None]
        got = cover(dx, dy, q)
        assert got.shape == (ys.size, xs.size)
        bx, by = np.broadcast_arrays(dx, dy)
        assert self.band_pairs(cover, bx, by, q) > 0
        np.testing.assert_array_equal(got, np.hypot(bx, by) <= r)

    def test_empty_block(self):
        got = DiskCover(np.ones(3))(np.empty((3, 0)), np.empty((3, 0)),
                                    np.arange(3)[:, None])
        assert got.shape == (3, 0)


class TestGridTier:
    """The grid tier's queries run through ``DiskCover`` and still agree
    with the literal hypot test on boundary-packed instances."""

    @staticmethod
    def ring_instance(r, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 20.0 * r, size=(40, 2))
        k = rng.integers(-8, 9, size=(40, 30))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(40, 30))
        d = r * (1.0 + k * 2.0**-52)
        ring = np.stack(
            [centers[:, :1] + d * np.cos(theta), centers[:, 1:] + d * np.sin(theta)],
            axis=-1,
        ).reshape(-1, 2)
        return centers, np.concatenate([centers, ring])

    @pytest.mark.parametrize("r", [1.0, 1e-3, 1e-140, 1e140])
    def test_query_pairs_and_count_within(self, r):
        centers, pos = self.ring_instance(r, seed=3)
        index = GridIndex(pos, cell_size=r)
        qq, hits = index.query_pairs(centers, r)
        dx = pos[:, 0][None, :] - centers[:, :1]
        dy = pos[:, 1][None, :] - centers[:, 1:]
        want = np.hypot(dx, dy) <= r
        wq, wh = np.nonzero(want)
        np.testing.assert_array_equal(qq, wq)
        np.testing.assert_array_equal(hits, wh)
        np.testing.assert_array_equal(
            index.count_within(centers, r), want.sum(axis=1)
        )

    @pytest.mark.parametrize("r", [1.0, 1e-140])
    def test_pairs_within_and_covered_counts(self, r):
        _, pos = self.ring_instance(r, seed=5)
        index = GridIndex(pos, cell_size=r)
        d = np.hypot(
            pos[:, 0][:, None] - pos[:, 0][None, :],
            pos[:, 1][:, None] - pos[:, 1][None, :],
        )
        want = d <= r
        a, b = np.nonzero(np.triu(want, k=1))
        np.testing.assert_array_equal(index.pairs_within(r), np.stack([a, b], axis=1))
        np.fill_diagonal(want, False)
        np.testing.assert_array_equal(
            batch_covered_counts(index, np.full(len(pos), r)), want.sum(axis=0)
        )
