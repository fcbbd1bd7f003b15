"""Tests for Algorithm A_apx (Theorem 5.6)."""

import math

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain, random_highway, uniform_chain
from repro.highway.a_apx import ApxInfo, a_apx
from repro.interference.receiver import graph_interference
from repro.model.udg import unit_disk_graph
from repro.opt import solve_opt


def _opt(pos) -> int:
    outcome = solve_opt(pos)
    assert outcome.status == "optimal"
    return outcome.value


class TestBranchSelection:
    def test_uniform_chain_goes_linear(self):
        _, info = a_apx(uniform_chain(100, spacing=0.009), return_info=True)
        assert info.branch == "linear"
        assert info.gamma <= math.sqrt(info.delta)

    def test_exponential_chain_goes_agen(self):
        _, info = a_apx(exponential_chain(64), return_info=True)
        assert info.branch == "a_gen"
        assert info.gamma > math.sqrt(info.delta)

    def test_info_types(self):
        out = a_apx(uniform_chain(10), return_info=True)
        assert isinstance(out, tuple) and isinstance(out[1], ApxInfo)
        t = a_apx(uniform_chain(10))
        from repro.model.topology import Topology

        assert isinstance(t, Topology)


class TestGuarantees:
    @pytest.mark.parametrize(
        "pos_factory",
        [
            lambda: uniform_chain(60, spacing=0.015),
            lambda: exponential_chain(48),
            lambda: random_highway(80, max_gap=0.3, seed=8),
            lambda: random_highway(80, max_gap=0.95, seed=9),
        ],
    )
    def test_connectivity_preserved(self, pos_factory):
        pos = pos_factory()
        udg = unit_disk_graph(pos)
        t = a_apx(pos)
        assert t.is_connected() == udg.is_connected()
        assert t.is_subgraph_of(udg)

    def test_beats_agen_on_uniform(self):
        from repro.highway.a_gen import a_gen

        pos = uniform_chain(150, spacing=0.01)
        apx_i = graph_interference(a_apx(pos))
        agen_i = graph_interference(a_gen(pos))
        assert apx_i < agen_i  # the hybrid avoids A_gen's waste here
        assert apx_i <= 2

    def test_ratio_against_exact_optimum(self):
        """On tiny instances, compare against the true optimum: ratio must
        stay within the Delta^(1/4) guarantee (with constant ~3)."""
        for pos in (
            uniform_chain(8, spacing=0.1),
            exponential_chain(8),
            random_highway(8, max_gap=0.1, seed=2),
        ):
            topo, info = a_apx(pos, return_info=True)
            opt = _opt(pos)
            ratio = graph_interference(topo) / opt
            assert ratio <= 3.0 * max(info.delta, 1) ** 0.25

    def test_lemma55_lower_bound_valid(self):
        """The certified bound sqrt(gamma/2) never exceeds the optimum."""
        for pos in (
            exponential_chain(9),
            random_highway(9, max_gap=0.2, seed=3),
            uniform_chain(9, spacing=0.05),
        ):
            _, info = a_apx(pos, return_info=True)
            opt = _opt(pos)
            assert opt >= info.lower_bound - 1e-9
