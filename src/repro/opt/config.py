"""Solver options for :mod:`repro.opt` — one frozen keyword-only dataclass.

Follows the keyword-only convention of the interference kernels (PR 3):
every option is named, a misspelled keyword raises ``TypeError`` at
construction instead of being silently ignored, and instances are frozen
so a config can be shared between solver calls (and hashed into cache
keys) without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative tolerance for disk-coverage / connectivity tests, matching
#: :data:`repro.interference.receiver.RTOL` so solver values agree with the
#: measured interference of the witness topology.
DEFAULT_TOLERANCE = 1e-9

#: Search expansions, annealing proposals or hill-climb candidate edges
#: between wall-clock budget checks.
_TIME_CHECK_MASK = 0xFF


@dataclass(frozen=True, kw_only=True)
class OptConfig:
    """Options accepted by every :mod:`repro.opt` entry point.

    Parameters
    ----------
    time_budget_s:
        Wall-clock budget for the whole solve, counted from entry: the
        bounds and the heuristic upper bound use it up too. ``None`` means
        unlimited. It is checked every 256 annealing proposals, every
        256 hill-climb candidate edges, before each decision search and
        every 256 expansions within one. On exhaustion the solver
        returns the best *certified bracket* found so far (status
        ``"budget"``) instead of raising.
    node_budget:
        Maximum number of search-tree nodes to expand (across all
        interference targets ``k``). ``None`` means unlimited. The
        deterministic counterpart of ``time_budget_s`` — use it in tests
        and CI where wall-clock limits would flake.
    seed:
        Seed for the heuristic upper bound (local search visit order and
        simulated-annealing proposals). The exact search itself is
        deterministic; the seed only changes which optimal witness the
        incumbent starts from.
    tolerance:
        Relative tolerance for "distance <= radius" and candidate-radius
        comparisons. Must match the tolerance used when measuring the
        witness (the default equals the interference kernels' ``RTOL``).
    """

    time_budget_s: float | None = None
    node_budget: int | None = None
    seed: int | None = 0
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive (or None)")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive (or None)")
        if not 0 <= self.tolerance < 1e-3:
            raise ValueError("tolerance must lie in [0, 1e-3)")
