"""The goal-directed greedy spanner: the t-spanner guarantee itself, and the
keep/drop verdicts on inputs that stress its rounding margin.

The stretch tests check the definition (every UDG distance stretched by at
most ``t``) without any reference loop. The numeric cases compare against
the plain full-Dijkstra reference of ``tests/test_topologies_oracle.py`` on
instances where floating-point rounding decides verdicts: large
translations, extreme scales, many-hop collinear paths, detours of exactly
``t·|uv|`` and zero-length edges.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_blobs,
    random_udg_connected,
    random_uniform_square,
)
from repro.graphs.spanner import graph_stretch
from repro.model.udg import unit_disk_graph
from repro.topologies.greedy_spanner import greedy_spanner
from repro.topologies.life import _coverage_order, lise
from tests.test_topologies_oracle import _ref_spanner, ref_emst, ref_life

T_VALUES = (1.0, 1.5, 2.0, 3.0)


def _seeded():
    for seed in range(4):
        yield f"udgconn{seed}", random_udg_connected(28, side=2.6, seed=seed)
        yield f"blobs{seed}", random_blobs(
            28, side=2.6, blobs=3, spread=0.4, seed=seed
        )


def _assert_ref_greedy(udg, t, label):
    """``greedy_spanner`` and ``lise`` against the full-Dijkstra loop."""
    order = np.argsort(udg.edge_lengths, kind="stable")
    want = _ref_spanner(udg, order, t).edges
    assert np.array_equal(greedy_spanner(udg, t=t).edges, want), label
    want = _ref_spanner(udg, _coverage_order(udg), t).edges
    assert np.array_equal(lise(udg, t=t).edges, want), label


@pytest.mark.parametrize("t", T_VALUES)
@pytest.mark.parametrize("builder", [greedy_spanner, lise], ids=["gspan", "lise"])
def test_stretch_at_most_t(builder, t):
    for label, pos in _seeded():
        udg = unit_disk_graph(pos)
        sp = builder(udg, t=t)
        assert sp.is_subgraph_of(udg), label
        stretch = graph_stretch(sp.as_graph(), udg.as_graph(), pos)
        assert stretch <= t * (1.0 + 1e-12), (label, stretch)


@pytest.mark.parametrize("offset", [1e6, 1e9, 1e12])
@pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
def test_translated(offset, t):
    for seed in range(3):
        pos = random_uniform_square(24, side=2.2, seed=seed) + offset
        _assert_ref_greedy(unit_disk_graph(pos), t, f"seed{seed}+{offset:g}")


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
def test_scaled(scale, t):
    for seed in range(3):
        pos = random_uniform_square(24, side=2.2, seed=seed) * scale
        udg = unit_disk_graph(pos, unit=scale)
        assert udg.n_edges > 0
        _assert_ref_greedy(udg, t, f"seed{seed}*{scale:g}")


@pytest.mark.parametrize("n", [24, 48, 64])
@pytest.mark.parametrize("t", [1.0, 1.5])
def test_long_exponential_chain(n, t):
    """A complete collinear UDG: with t = 1 every long edge is spanned by a
    path of up to n - 1 hops whose fold-sum only rounds to its length."""
    udg = unit_disk_graph(exponential_chain(n))
    assert udg.n_edges == n * (n - 1) // 2
    _assert_ref_greedy(udg, t, f"expchain{n}")


@pytest.mark.parametrize("t", T_VALUES)
def test_collinear_integer_line(t):
    """Integer points on a line: a detour along it equals |uv| exactly, and
    an integer t makes some detour (back and forth) equal t·|uv|."""
    xs = np.array([0, 1, 2, 3, 5, 6, 8, 9, 12, 13, 14], dtype=np.float64)
    for unit in (2.0, 4.0, 16.0):
        udg = unit_disk_graph(xs, unit=unit)
        _assert_ref_greedy(udg, t, f"line@{unit}")


@pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
def test_integer_lattice(t):
    """A 2-D integer grid: three sides of a unit square are a detour of
    exactly 3·|uv|, four unit steps around a 2×1 rectangle one of exactly
    2·|uv|, and two steps along a row one of exactly |uv|."""
    for rows, cols, unit in ((4, 5, 1.0), (4, 4, 1.5), (3, 6, 2.0)):
        udg = unit_disk_graph(grid_points(rows, cols, spacing=1.0), unit=unit)
        _assert_ref_greedy(udg, t, f"grid{rows}x{cols}@{unit}")


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_coincident_nodes_finite_t(t):
    for seed in range(4):
        base = random_uniform_square(12, side=1.6, seed=400 + seed)
        pos = np.concatenate([base, base[:4], base[:2]])
        udg = unit_disk_graph(pos)
        assert (udg.edge_lengths == 0.0).any()
        _assert_ref_greedy(udg, t, f"coincident{seed}")


def test_coincident_nodes_infinite_t():
    """t = inf makes the bound of a zero-length edge NaN: the edge is
    spanned iff its endpoints are already joined, so the result is the
    spanning forest (Kruskal in length order for the greedy spanner, in
    coverage order for LISE). The full-Dijkstra loop cannot serve here:
    its ``dist > inf`` test never keeps an edge."""
    for seed in range(4):
        base = random_uniform_square(12, side=1.6, seed=400 + seed)
        pos = np.concatenate([base, base[:4], base[:2] + 9.0, base[:2] + 9.0])
        udg = unit_disk_graph(pos)
        assert (udg.edge_lengths == 0.0).any()
        label = f"coincident{seed}"
        assert np.array_equal(
            greedy_spanner(udg, t=math.inf).edges, ref_emst(udg).edges
        ), label
        assert np.array_equal(lise(udg, t=math.inf).edges, ref_life(udg).edges), label


def _detour(t: float, excess: float) -> np.ndarray:
    """Edge ``uv`` from (0, 0) to (1, 0) plus a detour of length
    ``t·(1 + excess)`` whose hops are all shorter than ``|uv|``: two equal
    legs for t = 1.5, a trapezoid (leg, 0.8 across, leg) for t >= 2. The UDG
    holds no other edge."""
    total = t * (1.0 + excess)
    if t < 2.0:
        leg = total / 2.0
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(leg * leg - 0.25)]])
    a = 0.1
    leg = (total - (1.0 - 2.0 * a)) / 2.0
    y = math.sqrt(leg * leg - a * a)
    return np.array([[0.0, 0.0], [1.0, 0.0], [a, y], [1.0 - a, y]])


@pytest.mark.parametrize("t", [1.5, 2.0, 2.5])
@pytest.mark.parametrize("excess", [-1e-7, -1e-13, 1e-13, 1e-9, 1e-7, 1e-5])
def test_detour_near_the_bound(t, excess):
    """``uv`` comes last in length order and is kept iff its detour exceeds
    ``t·|uv|·(1 + 1e-12)``: the A* margin widens only the prune, never the
    acceptance of the other endpoint."""
    pos = _detour(t, excess)
    udg = unit_disk_graph(pos)
    assert udg.n_edges == pos.shape[0]  # the detour's hops plus uv
    kept = greedy_spanner(udg, t=t).contains_edges([(0, 1)])
    assert kept == (excess > 1e-12), (t, excess)
    _assert_ref_greedy(udg, t, f"detour{t}{excess:+g}")
