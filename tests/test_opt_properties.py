"""Property tests: the branch-and-bound solver equals the exhaustive oracle
on every small randomized instance, both witnesses measure their value,
and every returned certificate re-verifies independently.

This is the correctness anchor of ``repro.opt``: the oracle shares no
pruning machinery with the solver (plain enumeration + the definitional
monotone cut only), and the measured interference of each witness is a
third, kernel-side reading of the same value."""

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain, random_highway, uniform_chain
from repro.interference.receiver import graph_interference
from repro.opt import exhaustive_opt, solve_opt, verify_certificate


def _uniform_instances():
    rng = np.random.default_rng(2024)
    for i in range(4):
        n = int(rng.integers(5, 9))
        yield f"uniform{i}(n={n})", rng.random((n, 2)) * 0.8, 1.0


def _clustered_instances():
    rng = np.random.default_rng(99)
    for i in range(3):
        n = int(rng.integers(5, 9))
        centers = rng.random((2, 2)) * 0.4
        pts = centers[rng.integers(2, size=n)] + rng.normal(0, 0.05, (n, 2))
        yield f"clustered{i}(n={n})", pts, 1.0


def _chain_instances():
    for n in (5, 6, 7, 8):
        yield f"exp_chain({n})", exponential_chain(n), 1.0
    yield "uniform_chain(8)", uniform_chain(8, spacing=0.1), 1.0
    yield "exp_chain(9)", exponential_chain(9), 1.0
    # the three exact instances of the thm56_aapx experiment
    yield "uniform_chain(9)", uniform_chain(9, spacing=0.1), 1.0
    yield "random_highway(9)", random_highway(9, max_gap=0.1, seed=13), 1.0


INSTANCES = (
    list(_uniform_instances())
    + list(_clustered_instances())
    + list(_chain_instances())
)


@pytest.mark.parametrize(
    "label,pos,unit", INSTANCES, ids=[label for label, _, _ in INSTANCES]
)
class TestSolverEqualsOracle:
    def test_three_way_agreement_and_certificate(self, label, pos, unit):
        outcome = solve_opt(pos, unit=unit)
        oracle_value, oracle_topo = exhaustive_opt(pos, unit=unit)

        assert outcome.value == oracle_value
        assert outcome.exact and outcome.status == "optimal"

        # the witnesses measure what they claim
        assert int(graph_interference(outcome.topology)) == outcome.value
        assert int(graph_interference(oracle_topo)) == oracle_value
        assert outcome.topology.is_connected()

        # independent re-verification (n <= 9 auto-rechecks search bounds
        # with the verifier's own exhaustive decision procedure)
        assert verify_certificate(pos, outcome.certificate)
