"""Tests for the paper-instance generators."""

import math

import numpy as np
import pytest

from repro.geometry.generators import (
    cluster_with_remote,
    exponential_chain,
    fragmented_exponential_chain,
    grid_points,
    perturb,
    random_blobs,
    random_cluster,
    random_highway,
    random_udg_connected,
    random_uniform_square,
    two_exponential_chains,
    uniform_chain,
)
from repro.geometry.points import distance_matrix


class TestExponentialChain:
    def test_gap_doubles(self):
        pos = exponential_chain(8, normalize=False)
        gaps = np.diff(pos[:, 0])
        np.testing.assert_allclose(gaps[1:] / gaps[:-1], 2.0, rtol=1e-12)
        assert gaps[0] == 1.0

    def test_normalized_span_is_one(self):
        for n in (2, 5, 64, 1024):
            pos = exponential_chain(n)
            assert pos[0, 0] == 0.0
            assert pos[-1, 0] == 1.0

    def test_normalized_gaps_still_double(self):
        pos = exponential_chain(40)
        gaps = np.diff(pos[:, 0])
        np.testing.assert_allclose(gaps[1:] / gaps[:-1], 2.0, rtol=1e-9)

    def test_positions_strictly_increasing_at_limit(self):
        pos = exponential_chain(1024)
        assert np.all(np.diff(pos[:, 0]) > 0)

    def test_single_node(self):
        assert exponential_chain(1).shape == (1, 2)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="1024"):
            exponential_chain(2000)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            exponential_chain(0)


class TestUniformChain:
    def test_spacing(self):
        pos = uniform_chain(5, spacing=0.25)
        np.testing.assert_allclose(np.diff(pos[:, 0]), 0.25)

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_chain(3, spacing=0.0)
        with pytest.raises(ValueError):
            uniform_chain(0)


class TestRandomHighway:
    def test_sorted(self):
        pos = random_highway(50, max_gap=0.5, seed=1)
        assert np.all(np.diff(pos[:, 0]) >= 0)
        assert np.all(pos[:, 1] == 0)

    def test_max_gap_respected(self):
        pos = random_highway(100, max_gap=0.4, seed=2)
        assert np.diff(pos[:, 0]).max() <= 0.4

    def test_length_mode(self):
        pos = random_highway(30, length=10.0, seed=3)
        assert pos[:, 0].min() >= 0 and pos[:, 0].max() <= 10.0

    def test_deterministic(self):
        a = random_highway(20, max_gap=1.0, seed=42)
        b = random_highway(20, max_gap=1.0, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_mutually_exclusive_modes(self):
        with pytest.raises(ValueError, match="at most one"):
            random_highway(5, length=2.0, max_gap=0.5)

    def test_no_coincident_nodes(self):
        pos = random_highway(200, max_gap=0.1, seed=4)
        assert np.all(np.diff(pos[:, 0]) > 0)


class TestFragmentedChain:
    def test_shape_and_connectivity_gaps(self):
        pos = fragmented_exponential_chain(4, 8, gap=0.9)
        assert pos.shape == (32, 2)
        # consecutive-node gaps never exceed 1 => UDG connected
        assert np.diff(pos[:, 0]).max() <= 1.0 + 1e-12

    def test_each_fragment_spans_gap(self):
        pos = fragmented_exponential_chain(3, 5, gap=0.8)
        frag = pos[:5, 0]
        assert frag[-1] - frag[0] == pytest.approx(0.8)


class TestTwoExponentialChains:
    def test_groups_partition_nodes(self):
        pos, groups = two_exponential_chains(10)
        n = pos.shape[0]
        assert n == 3 * 10 - 1
        all_idx = np.concatenate([groups["h"], groups["v"], groups["t"]])
        assert sorted(all_idx.tolist()) == list(range(n))

    def test_horizontal_gaps_double(self):
        pos, groups = two_exponential_chains(8)
        h = pos[groups["h"], 0]
        gaps = np.diff(h)
        np.testing.assert_allclose(gaps[1:] / gaps[:-1], 2.0, rtol=1e-12)

    def test_vertical_displacement_exceeds_left_gap(self):
        """The paper's condition d_i > 2**(i-1)."""
        pos, groups = two_exponential_chains(8, eps=0.05)
        for i in range(1, 8):
            d_i = pos[groups["v"][i], 1]
            assert d_i > 2.0 ** (i - 1)

    def test_helper_condition(self):
        """d(h_i, t_i) > d(h_i, v_i) for every helper (paper requirement)."""
        pos, groups = two_exponential_chains(12)
        h, v, t = groups["h"], groups["v"], groups["t"]
        for i in range(1, 12):
            d_ht = np.hypot(*(pos[h[i]] - pos[t[i - 1]]))
            d_hv = np.hypot(*(pos[h[i]] - pos[v[i]]))
            assert d_ht > d_hv

    def test_nearest_neighbor_of_horizontal_is_left_horizontal(self):
        """h_i's nearest neighbour must be h_{i-1} so the NNF links the chain."""
        pos, groups = two_exponential_chains(8)
        d = distance_matrix(pos)
        np.fill_diagonal(d, np.inf)
        h = groups["h"]
        for i in range(1, 8):
            assert int(np.argmin(d[h[i]])) == int(h[i - 1])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            two_exponential_chains(1)
        with pytest.raises(ValueError):
            two_exponential_chains(5, eps=0.5)
        with pytest.raises(ValueError):
            two_exponential_chains(5, helper_fraction=0.5)


class TestClusterWithRemote:
    def test_layout(self):
        pos = cluster_with_remote(20, cluster_radius=0.05, remote_distance=1.0, seed=0)
        assert pos.shape == (20, 2)
        assert np.hypot(*pos[:19].T).max() <= 0.05 + 1e-12
        assert tuple(pos[19]) == (1.0, 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cluster_with_remote(1)
        with pytest.raises(ValueError):
            cluster_with_remote(5, cluster_radius=2.0, remote_distance=1.0)


class TestRandom2D:
    def test_uniform_square_bounds(self):
        pos = random_uniform_square(100, side=2.0, seed=1)
        assert pos.min() >= 0.0 and pos.max() <= 2.0

    def test_cluster_in_disk(self):
        pos = random_cluster(200, center=(1.0, -1.0), radius=0.5, seed=2)
        assert np.hypot(pos[:, 0] - 1.0, pos[:, 1] + 1.0).max() <= 0.5 + 1e-12

    def test_grid(self):
        pos = grid_points(3, 4, spacing=0.5)
        assert pos.shape == (12, 2)
        assert pos[:, 0].max() == pytest.approx(1.5)
        assert pos[:, 1].max() == pytest.approx(1.0)

    def test_perturb_scale(self):
        base = grid_points(5, 5)
        noisy = perturb(base, sigma=0.01, seed=3)
        assert noisy.shape == base.shape
        assert 0 < np.abs(noisy - base).max() < 0.1

    def test_perturb_zero_sigma(self):
        base = grid_points(2, 2)
        np.testing.assert_array_equal(perturb(base, sigma=0.0, seed=1), base)

    def test_random_udg_connected_is_connected(self):
        from repro.model.udg import unit_disk_graph

        pos = random_udg_connected(30, side=3.0, seed=11)
        assert unit_disk_graph(pos, unit=1.0).is_connected()

    def test_random_udg_connected_matches_union_find_oracle(self):
        """Same RNG draws, same accept/reject decisions: bit-identical
        positions to the original per-edge union-find loop."""
        from repro.geometry.points import pairwise_within
        from repro.graphs.unionfind import DisjointSet
        from repro.utils import as_generator

        def oracle(n, side, seed, max_tries=200):
            rng = as_generator(seed)
            for tries in range(1, max_tries + 1):
                pos = random_uniform_square(n, side=side, seed=rng)
                ds = DisjointSet(n)
                for i, j in pairwise_within(pos, 1.0):
                    ds.union(int(i), int(j))
                if ds.n_components == 1:
                    return pos, tries
            raise AssertionError("oracle found no connected instance")

        rejected = 0
        for seed in range(50):
            n = 8 + seed % 33
            side = 1.2 + 0.05 * n  # near the connectivity threshold
            want, tries = oracle(n, side, seed)
            rejected += tries > 1
            got = random_udg_connected(n, side=side, seed=seed)
            assert got.tobytes() == want.tobytes(), seed
        assert rejected > 0  # the reject-and-redraw path was exercised

    def test_random_udg_connected_impossible_density(self):
        with pytest.raises(RuntimeError, match="increase density"):
            random_udg_connected(5, side=1000.0, seed=1, max_tries=3)

    def test_random_blobs_bounds_and_determinism(self):
        pos = random_blobs(500, side=10.0, blobs=5, spread=0.5, seed=4)
        assert pos.shape == (500, 2)
        assert pos.min() >= 0.0 and pos.max() <= 10.0
        np.testing.assert_array_equal(
            pos, random_blobs(500, side=10.0, blobs=5, spread=0.5, seed=4)
        )

    def test_random_blobs_is_clustered(self):
        # with tight blobs, pair distances concentrate far below uniform
        pos = random_blobs(300, side=100.0, blobs=4, spread=0.5, seed=7)
        d = distance_matrix(pos)
        near = (d[np.triu_indices(300, k=1)] < 5.0).mean()
        assert near > 0.2

    def test_random_blobs_invalid(self):
        with pytest.raises(ValueError):
            random_blobs(-1)
        with pytest.raises(ValueError):
            random_blobs(10, blobs=0)
        with pytest.raises(ValueError):
            random_blobs(10, spread=-0.1)
