"""Bench E6 / Theorem 5.2: the certified exact solver on small instances."""

import math

import pytest

from repro.geometry.generators import exponential_chain, random_uniform_square
from repro.opt import solve_opt


def _solve(pos):
    outcome = solve_opt(pos)
    assert outcome.status == "optimal"
    return outcome


@pytest.mark.benchmark(group="thm52")
@pytest.mark.parametrize("n", [7, 9])
def test_exact_optimum_exponential_chain(benchmark, n):
    outcome = benchmark(_solve, exponential_chain(n))
    assert outcome.value >= math.sqrt(n) - 1e-9  # Theorem 5.2
    assert outcome.topology.is_connected()


@pytest.mark.benchmark(group="thm52")
def test_exact_optimum_random_2d(benchmark):
    pos = random_uniform_square(9, side=0.8, seed=11)
    outcome = benchmark(_solve, pos)
    assert outcome.topology.is_connected()
    assert outcome.value >= 1


@pytest.mark.benchmark(group="thm52")
def test_infeasibility_proof(benchmark):
    """The hard direction: proving no topology achieves I < sqrt(n)."""
    outcome = benchmark(_solve, exponential_chain(9))
    assert outcome.lower_bound == outcome.value == 4  # I <= 3 refuted
    assert outcome.certificate.lower_bound_method == "search"
