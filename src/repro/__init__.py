"""repro — reproduction of *A Robust Interference Model for Wireless Ad-Hoc
Networks* (von Rickenbach, Schmid, Wattenhofer & Zollinger, IPPS 2005).

The package implements the paper's receiver-centric interference measure,
the highway-model algorithms A_exp / A_gen / A_apx with their bounds, the
sender-centric baseline of Burkhart et al., a dozen classical topology-
control algorithms, an exact small-instance solver, and a packet-level
simulation substrate — plus an experiment harness regenerating every figure
and theorem of the paper (see DESIGN.md and EXPERIMENTS.md).

Quickstart::

    from repro import exponential_chain, a_exp, graph_interference
    topo = a_exp(exponential_chain(100))
    print(graph_interference(topo))   # ~ sqrt(2 * 100)

The curated stable surface lives in :mod:`repro.api` (one ``__all__``,
deprecation shims, CI-checked snapshot); the observability layer (spans,
counters, ``repro trace``) lives in :mod:`repro.obs`. See ``docs/API.md``.
"""

from repro.geometry.generators import (
    cluster_with_remote,
    exponential_chain,
    random_highway,
    random_udg_connected,
    random_uniform_square,
    two_exponential_chains,
    uniform_chain,
)
from repro import obs
from repro.faults import ChurnEngine, ChurnSchedule, FaultPlan
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.interference.receiver import (
    average_interference,
    coverage_counts,
    graph_interference,
    node_interference,
)
from repro.interference.sender import sender_interference
from repro.highway.a_apx import a_apx
from repro.highway.a_exp import a_exp
from repro.highway.a_gen import a_gen
from repro.highway.linear import linear_chain
from repro.opt import OptConfig, solve_opt, verify_certificate
from repro.runner import ResultCache, SweepTask, expand_grid, run_sweep

__version__ = "3.0.0"

__all__ = [
    "Topology",
    "unit_disk_graph",
    "node_interference",
    "graph_interference",
    "average_interference",
    "coverage_counts",
    "sender_interference",
    "obs",
    "a_exp",
    "a_gen",
    "a_apx",
    "linear_chain",
    "exponential_chain",
    "uniform_chain",
    "random_highway",
    "two_exponential_chains",
    "cluster_with_remote",
    "random_uniform_square",
    "random_udg_connected",
    "FaultPlan",
    "ChurnSchedule",
    "ChurnEngine",
    "ResultCache",
    "SweepTask",
    "expand_grid",
    "run_sweep",
    "OptConfig",
    "solve_opt",
    "verify_certificate",
    "__version__",
]
