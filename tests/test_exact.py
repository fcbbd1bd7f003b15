"""Tests for the exact branch-and-bound solver, :func:`repro.opt.solve_opt`:
its decision procedure, known optima and guardrails."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.geometry.generators import (
    exponential_chain,
    random_uniform_square,
    uniform_chain,
)
from repro.geometry.points import distance_matrix
from repro.interference.receiver import graph_interference
from repro.opt import SOLVER_MAX_NODES, OptConfig, solve_opt
from repro.opt.solver import _Budget, _DecisionSearch


def _optimum(pos, **kwargs):
    outcome = solve_opt(pos, **kwargs)
    assert outcome.status == "optimal"
    return outcome.value, outcome.topology


def _decide(pos, k):
    """The solver's decision procedure alone: a connected radius vector
    with coverage <= ``k``, or ``None``."""
    pos = np.asarray(pos, dtype=np.float64)
    cfg = OptConfig()
    search = _DecisionSearch(
        pos, distance_matrix(pos), unit=1.0, tolerance=cfg.tolerance, stats=Counter()
    )
    return search.feasible(k, _Budget(cfg))


class TestDecisionProcedure:
    def test_infeasible_below_optimum(self):
        pos = exponential_chain(8)  # OPT = 4
        assert _decide(pos, 3) is None

    def test_feasible_at_optimum(self):
        radii = _decide(exponential_chain(8), 4)
        assert radii is not None
        assert radii.shape == (8,)

    def test_unreachable_node(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="reach anybody"):
            _decide(pos, 5)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="limited"):
            solve_opt(np.zeros((SOLVER_MAX_NODES + 1, 2)))

    def test_trivial(self):
        outcome = solve_opt(np.array([[0.0, 0.0]]))
        assert outcome.value == 0 and outcome.certificate.radii == (0.0,)


class TestMinimumInterference:
    def test_matches_witness_measurement(self):
        """The returned topology's measured interference equals the optimum."""
        for pos in (
            exponential_chain(7),
            uniform_chain(7, spacing=0.1),
            random_uniform_square(7, side=0.8, seed=4),
        ):
            opt, topo = _optimum(pos)
            assert graph_interference(topo) == opt
            assert topo.is_connected()

    def test_theorem52_floor(self):
        """OPT >= sqrt(n) on the exponential chain (Theorem 5.2)."""
        for n in (4, 6, 8, 9):
            opt, _ = _optimum(exponential_chain(n))
            assert opt >= math.sqrt(n) - 1e-9

    def test_uniform_chain_optimum_is_two(self):
        opt, _ = _optimum(uniform_chain(8, spacing=0.1))
        assert opt == 2

    def test_two_nodes(self):
        opt, topo = _optimum(np.array([[0.0, 0.0], [0.4, 0.0]]))
        assert opt == 1 and topo.has_edge(0, 1)

    def test_single_node(self):
        opt, topo = _optimum(np.array([[0.0, 0.0]]))
        assert opt == 0 and topo.n_edges == 0

    def test_no_worse_than_heuristics(self):
        """OPT lower-bounds every heuristic on the same instance."""
        from repro.highway.a_apx import a_apx
        from repro.highway.a_exp import a_exp
        from repro.highway.linear import linear_chain

        pos = exponential_chain(8)
        opt, _ = _optimum(pos)
        for topo in (a_exp(pos), a_apx(pos), linear_chain(pos)):
            assert graph_interference(topo) >= opt

    def test_disconnected_udg_raises(self):
        pos = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ValueError, match="never connectable"):
            solve_opt(pos, unit=1.0)

    def test_unit_restriction_changes_optimum(self):
        """Tighter unit range can force higher interference."""
        pos = uniform_chain(6, spacing=0.5)
        opt_wide, _ = _optimum(pos, unit=10.0)
        opt_tight, _ = _optimum(pos, unit=0.5)
        assert opt_wide <= opt_tight
