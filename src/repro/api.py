"""The stable public API facade — one import surface, one ``__all__``.

``repro.api`` re-exports every entry point the project commits to keeping
stable, grouped by layer. Code that imports from here is insulated from
internal reorganisation: inner modules may move or grow, but a name in
:data:`__all__` only ever changes behaviour through the documented
deprecation policy (see ``docs/API.md``). The public-API snapshot test
(``tests/data/public_api.txt``) fails CI on any accidental surface
change, so additions and removals are always deliberate and reviewed.

Quickstart::

    from repro import api

    topo = api.build_topology("a_exp", api.unit_disk_graph(
        api.exponential_chain(100), unit=2.0 ** 101))
    print(api.graph_interference(topo))
"""

from __future__ import annotations

from repro import obs
from repro.cluster import (
    ClusterRouter,
    TileGrid,
    factor_tiles,
    required_ghost,
)
from repro.distributed import (
    DistributedResult,
    Protocol,
    SynchronousNetwork,
    UnreliableNetwork,
)
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    run_all,
)
from repro.experiments.registry import run as run_experiment
from repro.faults import ChurnEngine, ChurnSchedule, FaultPlan
from repro.geometry.generators import (
    cluster_with_remote,
    exponential_chain,
    random_blobs,
    random_highway,
    random_udg_connected,
    random_uniform_square,
    two_exponential_chains,
    uniform_chain,
)
from repro.geometry.spatial import BatchQuery
from repro.highway import a_apx, a_exp, a_gen, linear_chain
from repro.highway.linear import highway_order
from repro.interference.batch import node_interference_many
from repro.interference.incremental import InterferenceTracker
from repro.interference.localized import localized_interference
from repro.interference.receiver import (
    ATOL,
    RTOL,
    average_interference,
    coverage_counts,
    graph_interference,
    node_interference,
    node_interference_naive,
)
from repro.interference.robustness import (
    addition_report,
    removal_report,
    stability_summary,
)
from repro.interference.sender import edge_coverage, sender_interference
from repro.mac import (
    BACKOFF_POLICIES,
    BackoffPolicy,
    BackoffState,
    MacConfig,
    MacResult,
    MacSimulator,
    SaturatedAlohaSimulator,
    SaturatedResult,
    interference_collision_spearman,
    jain_fairness,
    make_policy,
    registered_policies,
)
from repro.interference.traffic import traffic_interference
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.opt import (
    Certificate,
    CertificateError,
    OptConfig,
    OptOutcome,
    certify_topology,
    combinatorial_lower_bound,
    exhaustive_opt,
    heuristic_opt,
    solve_opt,
    verify_certificate,
)
from repro.runner import (
    ResultCache,
    RunManifest,
    SweepOutcome,
    SweepTask,
    TaskRecord,
    TaskTimeout,
    derive_seeds,
    expand_grid,
    run_sweep,
)
from repro.serve import (
    PROTOCOL_VERSION,
    ClusterConfig,
    InterferenceServer,
    LaneRouter,
    LoadGenConfig,
    LoadGenReport,
    RetryPolicy,
    RouteKey,
    Router,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeRetryError,
    ShardCluster,
    run_loadgen,
)
from repro.stream import (
    DurableStreamEngine,
    LogStore,
    RecoveryInfo,
    SegmentedWal,
    StreamConfig,
    StreamEngine,
    StreamEvent,
    WalCorruption,
    WriteAheadLog,
    chaos_suite,
    random_stream_events,
    verify_stream_dir,
)
from repro.topologies import (
    ALGORITHMS,
    HIGHWAY_ALGORITHMS,
    OPTIMIZERS,
    is_highway,
    is_optimizer,
    registered_names,
)
from repro.topologies import build as build_topology

__all__ = [
    # model
    "Topology",
    "unit_disk_graph",
    # instance generators
    "cluster_with_remote",
    "exponential_chain",
    "random_blobs",
    "random_highway",
    "random_udg_connected",
    "random_uniform_square",
    "two_exponential_chains",
    "uniform_chain",
    # interference measures
    "ATOL",
    "RTOL",
    "InterferenceTracker",
    "addition_report",
    "average_interference",
    "coverage_counts",
    "edge_coverage",
    "graph_interference",
    "localized_interference",
    "node_interference",
    "node_interference_many",
    "node_interference_naive",
    "removal_report",
    "sender_interference",
    "stability_summary",
    "traffic_interference",
    # highway algorithms (Section 5)
    "a_apx",
    "a_exp",
    "a_gen",
    "highway_order",
    "linear_chain",
    # topology-control registry
    "ALGORITHMS",
    "HIGHWAY_ALGORITHMS",
    "OPTIMIZERS",
    "build_topology",
    "is_highway",
    "is_optimizer",
    "registered_names",
    # optimization (certified solvers)
    "Certificate",
    "CertificateError",
    "OptConfig",
    "OptOutcome",
    "certify_topology",
    "combinatorial_lower_bound",
    "exhaustive_opt",
    "heuristic_opt",
    "solve_opt",
    "verify_certificate",
    # MAC contention suite
    "BACKOFF_POLICIES",
    "BackoffPolicy",
    "BackoffState",
    "MacConfig",
    "MacResult",
    "MacSimulator",
    "SaturatedAlohaSimulator",
    "SaturatedResult",
    "interference_collision_spearman",
    "jain_fairness",
    "make_policy",
    "registered_policies",
    # distributed execution
    "DistributedResult",
    "Protocol",
    "SynchronousNetwork",
    "UnreliableNetwork",
    # fault injection
    "ChurnEngine",
    "ChurnSchedule",
    "FaultPlan",
    # experiments
    "Experiment",
    "ExperimentResult",
    "REGISTRY",
    "run_all",
    "run_experiment",
    # sweep runner
    "ResultCache",
    "RunManifest",
    "SweepOutcome",
    "SweepTask",
    "TaskRecord",
    "TaskTimeout",
    "derive_seeds",
    "expand_grid",
    "run_sweep",
    # spatial queries
    "BatchQuery",
    # serving layer
    "InterferenceServer",
    "LoadGenConfig",
    "LoadGenReport",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeRetryError",
    "run_loadgen",
    # routing API + shard cluster
    "ClusterConfig",
    "ClusterRouter",
    "LaneRouter",
    "RouteKey",
    "Router",
    "ShardCluster",
    "TileGrid",
    "factor_tiles",
    "required_ghost",
    # streaming engine (durable event sourcing) + storage seam
    "DurableStreamEngine",
    "LogStore",
    "RecoveryInfo",
    "SegmentedWal",
    "StreamConfig",
    "StreamEngine",
    "StreamEvent",
    "WalCorruption",
    "WriteAheadLog",
    "chaos_suite",
    "random_stream_events",
    "verify_stream_dir",
    # observability
    "obs",
]
