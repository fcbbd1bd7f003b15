"""solve_opt: exactness on known instances, anytime budgets, guardrails,
heuristic upper bounds, observability instrumentation."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.geometry.generators import (
    exponential_chain,
    random_udg_connected,
    uniform_chain,
)
from repro.interference.receiver import graph_interference
from repro.opt import (
    SOLVER_MAX_NODES,
    OptConfig,
    heuristic_opt,
    solve_opt,
    verify_certificate,
)


class TestKnownOptima:
    @pytest.mark.parametrize(
        "n,expected", [(7, 3), (8, 4), (10, 4)]
    )
    def test_exponential_chain(self, n, expected):
        pos = exponential_chain(n)
        outcome = solve_opt(pos)
        assert outcome.value == expected
        assert outcome.exact and outcome.status == "optimal"
        assert verify_certificate(pos, outcome.certificate)

    def test_uniform_chain(self):
        pos = uniform_chain(8, spacing=0.1)
        outcome = solve_opt(pos)
        assert outcome.value == 2 and outcome.exact

    def test_witness_measures_the_claimed_value(self):
        pos = exponential_chain(8)
        outcome = solve_opt(pos)
        assert int(graph_interference(outcome.topology)) == outcome.value
        assert outcome.topology.is_connected()


class TestTrivialAndGuardrails:
    def test_single_node(self):
        outcome = solve_opt(np.zeros((1, 2)))
        assert outcome.value == 0 and outcome.exact
        assert verify_certificate(np.zeros((1, 2)), outcome.certificate)

    def test_two_nodes(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        outcome = solve_opt(pos)
        # the single edge is forced; each node is covered by exactly the
        # other's disk, so I(G) = 1
        assert outcome.value == 1 and outcome.exact

    def test_disconnected_instance_raises(self):
        pos = uniform_chain(5, spacing=2.0)  # gaps exceed the unit range
        with pytest.raises(ValueError):
            solve_opt(pos)

    def test_size_cap(self):
        pos = uniform_chain(SOLVER_MAX_NODES + 1, spacing=0.01)
        with pytest.raises(ValueError, match=str(SOLVER_MAX_NODES)):
            solve_opt(pos)

    def test_unit_range_shapes_the_optimum(self):
        pos = uniform_chain(6, spacing=0.5)
        tight = solve_opt(pos, unit=0.5)   # only adjacent hops admissible
        loose = solve_opt(pos, unit=3.0)   # complete graph available
        assert tight.value >= loose.value
        assert verify_certificate(pos, tight.certificate)
        assert verify_certificate(pos, loose.certificate, recheck_search=False)


class TestBudgets:
    def test_node_budget_yields_certified_bracket(self):
        pos = exponential_chain(16)
        outcome = solve_opt(pos, config=OptConfig(node_budget=5_000))
        assert outcome.status == "budget"
        assert 1 <= outcome.lower_bound <= outcome.value
        assert not outcome.exact
        assert outcome.topology.is_connected()
        assert verify_certificate(pos, outcome.certificate)

    def test_time_budget_terminates(self):
        pos = exponential_chain(16)
        outcome = solve_opt(pos, config=OptConfig(time_budget_s=0.2))
        assert outcome.status in ("budget", "optimal")
        assert verify_certificate(pos, outcome.certificate)

    def test_short_budget_on_a_large_instance_is_certified(self):
        # at n = 20 the unbudgeted heuristic alone outlasts a 25 ms budget;
        # the walk stops early and the bracket is still certified
        pos = exponential_chain(20)
        outcome = solve_opt(pos, config=OptConfig(time_budget_s=0.025))
        assert outcome.status == "budget"
        assert 1 <= outcome.lower_bound <= outcome.value
        assert outcome.topology.is_connected()
        assert verify_certificate(pos, outcome.certificate)

    def test_spent_time_budget_stops_before_the_search(self):
        # the deadline runs from solve_opt entry, so the bounds and the
        # heuristic alone use up a microsecond budget: the annealing walk
        # makes no proposal and no node is expanded
        pos = exponential_chain(16)
        with obs.capture():
            outcome = solve_opt(pos, config=OptConfig(time_budget_s=1e-6))
        assert obs.counters()["opt.anneal.proposals"] == 0
        assert outcome.status == "budget"
        assert outcome.stats["nodes_expanded"] == 0
        assert outcome.lower_bound < outcome.value
        assert verify_certificate(pos, outcome.certificate)

    def test_budget_does_not_change_small_instance_optimum(self):
        pos = exponential_chain(8)
        free = solve_opt(pos)
        budgeted = solve_opt(pos, config=OptConfig(node_budget=10_000_000))
        assert budgeted.value == free.value
        assert budgeted.exact

    def test_stats_are_reported(self):
        outcome = solve_opt(exponential_chain(8))
        assert outcome.stats["nodes_expanded"] > 0
        assert "prune_coverage" in outcome.stats


class TestHeuristic:
    def test_upper_bounds_the_optimum(self):
        pos = exponential_chain(10)
        exact = solve_opt(pos)
        hval, htopo = heuristic_opt(pos)
        assert hval >= exact.value
        assert htopo.is_connected()

    def test_deterministic_under_seed(self):
        pos = random_udg_connected(14, side=1.5, seed=9)
        a_val, a_topo = heuristic_opt(pos, config=OptConfig(seed=4))
        b_val, b_topo = heuristic_opt(pos, config=OptConfig(seed=4))
        assert a_val == b_val
        assert a_topo == b_topo

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            heuristic_opt(uniform_chain(4, spacing=2.0))

    def test_deadline_stops_the_walk_every_256_proposals(self, monkeypatch):
        # a fake clock that passes the deadline on its third reading: the
        # walk reads it before proposals 0, 256 and 512, so it stops at 512
        # with its best tree, a spanning tree of the UDG
        from repro.model.udg import unit_disk_graph
        from repro.opt import heuristic

        readings = iter(range(10))
        monkeypatch.setattr(
            heuristic, "time", SimpleNamespace(perf_counter=lambda: next(readings))
        )
        udg = unit_disk_graph(exponential_chain(20))
        with obs.capture():
            tree = heuristic._anneal(udg, seed=0, deadline=1.5)
        assert obs.counters()["opt.anneal.proposals"] == 512
        assert tree.is_connected() and tree.n_edges == udg.n - 1
        for u, v in tree.edges:
            assert udg.has_edge(int(u), int(v))

    def test_deadline_stops_the_hill_climb_every_256_candidates(self, monkeypatch):
        # a fake clock that passes the deadline on its second reading: the
        # hill-climb reads it before candidate edges 0 and 256 only, and
        # stops there with its current tree, a spanning tree of the UDG
        from repro.extensions import local_search
        from repro.model.udg import unit_disk_graph

        readings = iter(range(10))
        monkeypatch.setattr(
            local_search,
            "time",
            SimpleNamespace(perf_counter=lambda: next(readings)),
        )
        udg = unit_disk_graph(random_udg_connected(60, side=3.0, seed=1))
        assert udg.n_edges > 256
        tree = local_search.reduce_interference(udg, seed=0, _deadline=0.5)
        assert next(readings) == 2
        assert tree.is_connected() and tree.n_edges == udg.n - 1
        assert tree.is_subgraph_of(udg)

    def test_spent_deadline_skips_the_hill_climb(self):
        # past the deadline neither the walk nor the hill-climb moves: the
        # witness is the UDG's Euclidean MST (the linear chain, I = n - 2)
        from repro.model.udg import unit_disk_graph
        from repro.topologies import build

        pos = exponential_chain(20)
        value, topo = heuristic_opt(pos, _deadline=0.0)
        emst = build("emst", unit_disk_graph(pos))
        assert topo == emst and value == graph_interference(emst) == 18
        assert heuristic_opt(pos)[0] < value

    def test_unreached_deadline_changes_nothing(self):
        from repro.model.udg import unit_disk_graph
        from repro.opt.heuristic import _anneal

        udg = unit_disk_graph(random_udg_connected(14, side=1.5, seed=9))
        free = _anneal(udg, seed=3)
        timed = _anneal(udg, seed=3, deadline=time.perf_counter() + 3600.0)
        assert free == timed

    def test_stays_within_udg(self):
        pos = random_udg_connected(12, side=1.5, seed=2)
        from repro.model.udg import unit_disk_graph

        udg = unit_disk_graph(pos, unit=1.0)
        _, topo = heuristic_opt(pos)
        for u, v in topo.edges:
            assert udg.has_edge(int(u), int(v))


class TestObservability:
    def test_solver_emits_spans_and_counters(self):
        pos = exponential_chain(8)
        with obs.capture():
            outcome = solve_opt(pos)
            verify_certificate(pos, outcome.certificate)
        snap = obs.snapshot()
        names = {
            span.name for root in snap.spans for span, _ in root.walk()
        }
        assert {"opt.solve", "opt.heuristic", "opt.search", "opt.verify"} <= names
        counters = dict(snap.counters)
        assert counters.get("opt.nodes.expanded", 0) > 0
        assert counters.get("opt.certificates.verified", 0) == 1
        assert counters.get("opt.anneal.proposals", 0) > 0
