"""Instrumentation coverage: kernels, protocols, runner, sim all report."""

import numpy as np
import pytest

import repro.experiments as experiments
from repro import obs
from repro.distributed import DistributedNnf, SynchronousNetwork, UnreliableNetwork
from repro.faults import FaultPlan
from repro.geometry.generators import random_udg_connected
from repro.geometry.spatial import GridIndex
from repro.interference.incremental import InterferenceTracker
from repro.interference.receiver import graph_interference, node_interference
from repro.mac import MacConfig, MacSimulator
from repro.model.udg import unit_disk_graph
from repro.runner import ResultCache, SweepTask, run_sweep
from repro.topologies import build


@pytest.fixture(autouse=True)
def clean_registry():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def udg():
    return unit_disk_graph(random_udg_connected(40, side=3.0, seed=9))


class TestKernelInstrumentation:
    def test_method_counter_and_span(self, udg):
        topo = build("emst", udg)
        with obs.capture():
            node_interference(topo, method="brute")
            node_interference(topo, method="batch")
        counters = obs.counters()
        assert counters["interference.method.brute"] == 1
        assert counters["interference.method.batch"] == 1
        names = [s.name for s, _ in obs.snapshot().iter_spans()]
        assert names.count("interference.node") == 2
        spans = obs.snapshot().spans
        assert spans[0].attrs["n"] == udg.n
        assert spans[0].attrs["method"] == "brute"

    def test_gridindex_query_counter(self, udg):
        index = GridIndex(udg.positions, cell_size=1.0)
        with obs.capture():
            index.query_radius(udg.positions[0], 1.0)
            index.query_point(3, 0.5)
            index.query_pairs(udg.positions[:5], 0.5)
        # the one-disk queries are single-row batch queries
        assert obs.counters()["gridindex.batch_queries"] == 7

    def test_grid_fallback_counter(self):
        # all radii span the whole extent: coverage fallback must trigger
        pos = np.linspace(0.0, 1.0, 8)[:, None] * [1.0, 0.0]
        topo = unit_disk_graph(pos, unit=2.0)
        with obs.capture():
            node_interference(topo, method="batch")
        assert obs.counters()["interference.batch.fallback_coverage"] == 1

    def test_tracker_update_counter(self, udg):
        with obs.capture():
            tracker = InterferenceTracker.from_topology(build("emst", udg))
            tracker.peek_max_after([(0, 1.0)])
        counters = obs.counters()
        assert counters["tracker.updates"] >= udg.n - 1
        assert counters["tracker.peeks"] == 1

    def test_disabled_means_no_counters(self, udg):
        topo = build("emst", udg)
        node_interference(topo)
        assert obs.counters() == {}
        assert obs.snapshot().spans == []


class TestProtocolInstrumentation:
    def test_synchronous_network_counts(self, udg):
        protocol = DistributedNnf()
        with obs.capture():
            result = SynchronousNetwork(udg).run(protocol)
        counters = obs.counters()
        assert counters["protocol.rounds"] == result.rounds
        assert counters["protocol.messages"] == result.messages_total
        snap = obs.snapshot()
        (root,) = snap.spans
        assert root.name == "distributed.run"
        assert root.attrs["protocol"] == "DistributedNnf"
        assert root.attrs["network"] == "synchronous"
        rounds = [c for c in root.children if c.name == "distributed.round"]
        assert len(rounds) == result.rounds

    def test_unreliable_network_counts(self, udg):
        protocol = DistributedNnf()
        plan = FaultPlan(p_drop=0.2, seed=5)
        with obs.capture():
            result = UnreliableNetwork(udg, plan).run(protocol)
        counters = obs.counters()
        assert counters["protocol.messages"] == result.messages_total
        assert counters["protocol.retransmissions"] == result.meta["retransmissions"]
        assert counters["protocol.acks"] == result.meta["ack_messages"]
        assert counters["protocol.drops"] == result.meta["drops"]
        assert counters["protocol.drops"] > 0  # p=0.2 over hundreds of links
        (root,) = obs.snapshot().spans
        assert root.attrs["network"] == "unreliable"


class TestSimInstrumentation:
    def test_event_counter_and_span_attrs(self, udg):
        cfg = MacConfig(mode="csma", tx_slots=3, load=0.05)
        with obs.capture():
            res = MacSimulator(udg, config=cfg).run(300, seed=3)
        counters = obs.counters()
        assert counters["mac.slots"] == 300
        assert counters["mac.attempts"] == res.attempts.sum()
        assert counters["mac.deferrals"] == res.deferrals.sum() > 0
        (root,) = obs.snapshot().spans
        assert root.name == "mac.run"
        assert root.attrs["mode"] == "csma"
        assert root.attrs["attempts"] == res.attempts.sum()
        assert root.attrs["collisions"] == res.rx_collision.sum()


class TestRunnerInstrumentation:
    def test_sweep_spans_reconcile_with_manifest(self, tmp_path):
        tasks = [SweepTask("fig2_sample")]
        cache = ResultCache(tmp_path / "cache")
        with obs.capture():
            outcome = run_sweep(tasks, cache=cache)       # miss
            outcome2 = run_sweep(tasks, cache=cache)      # hit
        counters = obs.counters()
        assert counters["runner.cache.miss"] == 1
        assert counters["runner.cache.hit"] == 1
        snap = obs.snapshot()
        sweeps = [s for s, _ in snap.iter_spans() if s.name == "runner.sweep"]
        assert len(sweeps) == 2
        task_spans = [s for s, _ in snap.iter_spans() if s.name == "runner.task"]
        assert len(task_spans) == 2
        for span, outcome_i in zip(task_spans, (outcome, outcome2)):
            record = outcome_i.manifest.tasks[0]
            assert span.attrs["experiment_id"] == record.experiment_id
            assert span.attrs["cache_hit"] == record.cache_hit
            assert span.duration_s == pytest.approx(record.wall_time_s, abs=1e-9)

    def test_experiment_span_nests_kernel_spans(self):
        with obs.capture():
            with obs.span("trace"):
                experiments.run("fig1_robustness", sizes=(10,), seed=3)
        snap = obs.snapshot()
        assert snap.max_depth() >= 3  # trace > experiment.* > interference.node
        names = {s.name for s, _ in snap.iter_spans()}
        assert "experiment.fig1_robustness" in names
        assert "interference.node" in names
        assert obs.counters()["interference.method.brute"] > 0
