"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils import check_edge_array, check_positions, check_radii
from repro.utils.validation import EDGE_KEY_MAX_N, edge_keys, edges_from_keys
from repro.utils.rng import as_generator


class TestCheckPositions:
    def test_passthrough_no_copy(self):
        arr = np.zeros((4, 2), dtype=np.float64)
        out = check_positions(arr)
        assert out is arr or np.shares_memory(out, arr)

    def test_lifts_1d_to_highway(self):
        out = check_positions([0.0, 1.0, 3.0])
        assert out.shape == (3, 2)
        assert np.array_equal(out[:, 0], [0.0, 1.0, 3.0])
        assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0])

    def test_casts_int_input(self):
        out = check_positions([[0, 0], [1, 2]])
        assert out.dtype == np.float64

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_positions(np.zeros((3, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            check_positions([[0.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            check_positions([[np.inf, 0.0]])

    def test_empty_ok(self):
        assert check_positions(np.zeros((0, 2))).shape == (0, 2)


class TestCheckRadii:
    def test_valid(self):
        out = check_radii([0.0, 1.5, 2.0], 3)
        assert out.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            check_radii([1.0], 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_radii([-0.1, 0.0], 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            check_radii([np.nan, 0.0], 2)


class TestCheckEdgeArray:
    def test_canonicalises_order(self):
        out = check_edge_array([(3, 1), (0, 2)], 4)
        assert out.tolist() == [[0, 2], [1, 3]]

    def test_deduplicates(self):
        out = check_edge_array([(0, 1), (1, 0), (0, 1)], 2)
        assert out.tolist() == [[0, 1]]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loops"):
            check_edge_array([(1, 1)], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="indices"):
            check_edge_array([(0, 5)], 3)
        with pytest.raises(ValueError, match="indices"):
            check_edge_array([(-1, 0)], 3)

    def test_empty(self):
        assert check_edge_array([], 3).shape == (0, 2)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_edge_array([[1, 2, 3]], 5)



def _reference_canonical(edges):
    """The old 2-D canonicalisation: row-sorted, then np.unique(axis=0)."""
    arr = np.asarray(edges, dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def _random_edges(rng, n, m):
    """``m`` random non-loop rows over ``0..n-1``, with duplicates and
    reversed copies mixed in."""
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    rows = np.stack([u, v], axis=1)
    extra = rows[rng.integers(0, m, size=m // 3)]
    flipped = extra[rng.random(extra.shape[0]) < 0.5][:, ::-1]
    rows = np.concatenate([rows, extra, flipped])
    return rows[rng.permutation(rows.shape[0])]


class TestCheckEdgeArrayProperties:
    """The 1-D key canonicalisation against the old 2-D reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_unique_axis0_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 4 * n))
        edges = _random_edges(rng, n, m)
        out = check_edge_array(edges, n)
        assert out.dtype == np.int64
        assert np.array_equal(out, _reference_canonical(edges))

    def test_canonical_input_passes_through(self):
        edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3]])
        out = check_edge_array(edges, 4)
        assert np.array_equal(out, edges)
        assert out is not edges  # a fresh array: callers freeze it

    @pytest.mark.parametrize(
        "n", [2**31 - 1, 2**31 + 11, EDGE_KEY_MAX_N - 7, EDGE_KEY_MAX_N]
    )
    def test_int64_key_headroom_at_large_n(self, n):
        rng = np.random.default_rng(n % 1000)
        edges = _random_edges(rng, 50, 120)
        # spread the indices over the top of the range: keys near n**2
        big = np.where(edges < 25, edges, n - 50 + edges)
        out = check_edge_array(big, n)
        assert np.array_equal(out, _reference_canonical(big))
        keys = edge_keys(out, n)
        assert np.all(keys[1:] > keys[:-1])
        assert np.array_equal(edges_from_keys(keys, n), out)

    def test_key_overflow_rejected(self):
        top = np.iinfo(np.int64).max
        assert EDGE_KEY_MAX_N**2 - 1 <= top < (EDGE_KEY_MAX_N + 1) ** 2 - 1
        with pytest.raises(ValueError, match="edge keys"):
            check_edge_array([(0, 1)], EDGE_KEY_MAX_N + 1)

    def test_key_roundtrip_and_order(self):
        rng = np.random.default_rng(3)
        out = check_edge_array(_random_edges(rng, 30, 80), 30)
        keys = edge_keys(out, 30)
        assert np.array_equal(keys, np.sort(keys))
        assert np.array_equal(edges_from_keys(keys, 30), out)


class TestAsGenerator:
    def test_from_int_deterministic(self):
        a = as_generator(5).random(4)
        b = as_generator(5).random(4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)
