"""Tests for the grid spatial index."""

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain
from repro.geometry.points import distance_matrix, pairwise_within
from repro.geometry.spatial import GridIndex, clamped_cell_size


class TestGridIndex:
    def test_query_radius_matches_brute(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        d = distance_matrix(random_positions)
        for i in range(0, len(random_positions), 4):
            for r in (0.2, 0.6, 1.3):
                got = set(index.query_radius(random_positions[i], r).tolist())
                want = set(np.nonzero(d[i] <= r)[0].tolist())
                assert got == want, (i, r)

    def test_query_point_excludes_self(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.7)
        for i in range(len(random_positions)):
            assert i not in index.query_point(i, 1.0)

    def test_query_off_grid_center(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        center = np.array([-5.0, -5.0])
        assert index.query_radius(center, 0.5).size == 0

    def test_pairs_within_matches_brute(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.9)
        got = {tuple(e) for e in index.pairs_within(0.9)}
        want = {tuple(e) for e in pairwise_within(random_positions, 0.9)}
        assert got == want

    def test_pairs_within_large_radius(self, random_positions):
        """Radius much larger than cell size still finds every pair."""
        index = GridIndex(random_positions, cell_size=0.2)
        got = {tuple(e) for e in index.pairs_within(2.0)}
        want = {tuple(e) for e in pairwise_within(random_positions, 2.0)}
        assert got == want

    def test_count_within(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        centers = random_positions[:5]
        radii = np.full(5, 0.8)
        counts = index.count_within(centers, radii)
        d = distance_matrix(random_positions)
        for k in range(5):
            assert counts[k] == int((d[k] <= 0.8).sum())

    def test_empty_index(self):
        index = GridIndex(np.zeros((0, 2)), cell_size=1.0)
        assert len(index) == 0
        assert index.query_radius((0.0, 0.0), 5.0).size == 0
        assert index.pairs_within(1.0).shape == (0, 2)

    def test_single_point(self):
        index = GridIndex([[2.0, 3.0]], cell_size=1.0)
        assert index.query_radius((2.0, 3.0), 0.0).tolist() == [0]
        assert index.query_point(0, 10.0).size == 0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((2, 2)), cell_size=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cell_id_overflow_raises(self):
        # 2^299 extent / unit cells: cell coordinates do not fit int64
        pos = exponential_chain(300, normalize=False)
        with pytest.raises(ValueError, match="overflow"):
            GridIndex(pos, cell_size=1.0)
        cell = clamped_cell_size(1.0, float(np.ptp(pos[:, 0])), 300)
        assert len(GridIndex(pos, cell_size=cell)) == 300

    def test_clamped_cell_size(self):
        # a 2.5-wide extent over 25 points allows cells down to 2.5/(4*5)
        assert clamped_cell_size(1.0, 2.5, 25) == 1.0
        assert clamped_cell_size(1e-9, 2.5, 25) == 0.125
        assert clamped_cell_size(0.5, 0.0, 0) == 0.5

    def test_clamped_cell_size_bounds_total_cells(self):
        # (x, y) spans bound nx * ny <= 16n: a square matches the scalar
        # form, a 1-D extent may put all 16n = 400 cells along its length
        assert clamped_cell_size(1e-9, (2.5, 2.5), 25) == 0.125
        assert clamped_cell_size(1e-9, (100.0, 0.0), 25) == pytest.approx(0.25)
        assert clamped_cell_size(1e-9, (0.0, 100.0), 25) == pytest.approx(0.25)
        # a sliver narrower than one cell still counts as one row
        assert clamped_cell_size(1e-9, (100.0, 0.01), 25) == pytest.approx(0.25)
        assert clamped_cell_size(1e-9, (40.0, 10.0), 25) == pytest.approx(1.0)
        assert clamped_cell_size(0.5, (100.0, 0.0), 25) == 0.5
        assert clamped_cell_size(0.5, (0.0, 0.0), 0) == 0.5

    def test_one_dimensional_extent_is_one_long_row(self):
        # a vertical chain: rows run along y, so every window is one span
        pos = np.zeros((300, 2))
        pos[:, 1] = exponential_chain(300, normalize=False)[:, 0]
        cell = clamped_cell_size(1.0, np.ptp(pos, axis=0), 300)
        index = GridIndex(pos, cell_size=cell)
        assert index._top[1] == 0 and index._ncols > 8 * 300
        radii = np.full(300, 2.0**290)
        assert index._row_windows(index._xs, index._ys, radii)[2].max() == 1
        counts = index.count_within(pos, 2.0**290)
        d = np.abs(pos[:, 1][:, None] - pos[:, 1][None, :])
        np.testing.assert_array_equal(counts, (d <= 2.0**290).sum(axis=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_and_far_disks_do_not_overflow_windows(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        n = len(random_positions)
        assert index.query_radius((0.0, 0.0), 1e300).size == n
        assert index.query_radius((1e300, -1e300), 1.0).size == 0
        counts = index.count_within([[0.0, 0.0], [1e300, 0.0]], [1e300, 1.0])
        assert counts.tolist() == [n, 0]

    def test_negative_radius(self, random_positions):
        index = GridIndex(random_positions, cell_size=1.0)
        with pytest.raises(ValueError):
            index.query_radius((0, 0), -0.5)

    def test_boundary_inclusive(self):
        """Points exactly at the query radius are included."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        index = GridIndex(pos, cell_size=0.3)
        assert 1 in index.query_radius((0.0, 0.0), 1.0)


def _cluster_with_remote_positions(seed=0, n_cluster=40):
    """A tight cluster plus one remote point: occupied columns span only
    a few cells, so an unclamped wide query used to alias across rows."""
    rng = np.random.default_rng(seed)
    cluster = rng.uniform(0.0, 0.1, size=(n_cluster, 2))
    return np.concatenate([cluster, [[5.0, 5.0]]], axis=0)


class TestCellAliasingRegression:
    """Regression: flat ids computed from unclamped cx/cy alias across
    rows (cx == ncols wraps into column 0 of the next row), making wide
    queries scan occupied cells twice and return duplicate indices."""

    def test_wide_query_returns_unique_hits(self):
        pos = _cluster_with_remote_positions()
        index = GridIndex(pos, cell_size=0.05)
        for center in ((0.05, 0.05), (5.0, 5.0), (2.5, 2.5)):
            for radius in (8.0, 20.0, 100.0):
                hits = index.query_radius(np.array(center), radius)
                assert len(hits) == len(set(hits.tolist())), (center, radius)
                assert len(hits) == pos.shape[0]  # radius covers everything

    def test_wide_query_exact_counts(self):
        pos = _cluster_with_remote_positions(seed=3)
        index = GridIndex(pos, cell_size=0.05)
        d = np.hypot(
            pos[:, 0][:, None] - pos[:, 0][None, :],
            pos[:, 1][:, None] - pos[:, 1][None, :],
        )
        for radius in (0.04, 0.5, 4.0, 7.5):
            counts = index.count_within(pos, np.full(pos.shape[0], radius))
            np.testing.assert_array_equal(counts, (d <= radius).sum(axis=1))

    def test_wide_pairs_within_no_duplicates(self):
        pos = _cluster_with_remote_positions(seed=5)
        index = GridIndex(pos, cell_size=0.05)
        pairs = index.pairs_within(10.0)
        as_tuples = [tuple(p) for p in pairs]
        assert len(as_tuples) == len(set(as_tuples))
        n = pos.shape[0]
        assert len(as_tuples) == n * (n - 1) // 2  # every pair, once


class TestBatchQueries:
    def test_query_pairs_matches_scalar(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        m = len(random_positions)
        radii = np.linspace(0.1, 1.5, m)
        qq, hits = index.query_pairs(random_positions, radii)
        got = {}
        for q, h in zip(qq.tolist(), hits.tolist()):
            got.setdefault(q, []).append(h)
        for i in range(m):
            want = index.query_radius(random_positions[i], float(radii[i]))
            assert got.get(i, []) == want.tolist(), i

    def test_query_pairs_scalar_radius_broadcasts(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.4)
        qq, hits = index.query_pairs(random_positions[:7], 0.8)
        counts = index.count_within(random_positions[:7], 0.8)
        np.testing.assert_array_equal(np.bincount(qq, minlength=7), counts)

    def test_query_pairs_negative_radius_raises(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.4)
        with pytest.raises(ValueError):
            index.query_pairs(random_positions[:3], [-1.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            index.count_within(random_positions[:3], [0.5, -0.1, 0.5])

    def test_sparse_cell_space_uses_searchsorted_path(self):
        # a tiny cell size over a wide extent makes the flat cell space
        # too large for the dense lookup tables: same answers either way
        pos = _cluster_with_remote_positions(seed=7)
        index = GridIndex(pos, cell_size=1e-4)
        assert index._dense_spans() is None
        counts = index.count_within(pos[:3], np.full(3, 10.0))
        np.testing.assert_array_equal(counts, np.full(3, pos.shape[0]))

    def test_chunked_batch_matches_unchunked(self, random_positions, monkeypatch):
        import repro.geometry.spatial as spatial

        index = GridIndex(random_positions, cell_size=0.4)
        want = index.count_within(random_positions, 1.0)
        monkeypatch.setattr(spatial, "BATCH_PAIR_CHUNK", 16)
        np.testing.assert_array_equal(
            index.count_within(random_positions, 1.0), want
        )


class TestNonFiniteInputs:
    """A NaN cell size or radius raises ValueError before any int64 cast
    (which would warn, then crash or build garbage windows); ``inf`` is a
    valid value for both."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_cell_size_rejected(self, random_positions):
        with pytest.raises(ValueError, match="cell_size"):
            GridIndex(random_positions, cell_size=float("nan"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_radius_rejected(self, random_positions):
        index = GridIndex(random_positions, cell_size=0.5)
        nan = float("nan")
        with pytest.raises(ValueError, match="radius"):
            index.query_radius((0.0, 0.0), nan)
        with pytest.raises(ValueError, match="radius"):
            index.query_point(0, nan)
        with pytest.raises(ValueError, match="radius"):
            index.query_pairs(random_positions[:3], [0.5, nan, 0.5])
        with pytest.raises(ValueError, match="radius"):
            index.count_within(random_positions[:3], nan)
        with pytest.raises(ValueError, match="radius"):
            index.pairs_within(nan)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cell", [0.5, float("inf")])
    def test_inf_radius_covers_everything(self, random_positions, cell):
        index = GridIndex(random_positions, cell_size=cell)
        n = len(random_positions)
        inf = float("inf")
        assert index.query_radius((0.0, 0.0), inf).tolist() == list(range(n))
        assert index.count_within(random_positions[:2], inf).tolist() == [n, n]
        assert len(index.pairs_within(inf)) == n * (n - 1) // 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inf_cell_size_is_one_cell(self, random_positions):
        index = GridIndex(random_positions, cell_size=float("inf"))
        d = distance_matrix(random_positions)
        np.testing.assert_array_equal(
            index.count_within(random_positions, 0.7), (d <= 0.7).sum(axis=1)
        )
        got = index.query_radius(random_positions[0], 0.7)
        np.testing.assert_array_equal(got, np.flatnonzero(d[0] <= 0.7))
