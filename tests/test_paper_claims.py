"""Integration tests: the paper's headline claims, end to end.

Each test reproduces one theorem/figure at full strength using only the
public API — these are the statements EXPERIMENTS.md reports.
"""

import math

import numpy as np
import pytest

from repro import (
    Topology,
    a_apx,
    a_exp,
    a_gen,
    exponential_chain,
    graph_interference,
    linear_chain,
    node_interference,
    sender_interference,
    two_exponential_chains,
    uniform_chain,
    unit_disk_graph,
)


class TestSection3Model:
    def test_interference_sandwich(self):
        """degree <= I(v) and I(G') <= Delta(UDG) for any subtopology."""
        from repro.geometry.generators import random_udg_connected
        from repro.topologies import ALGORITHMS, build

        pos = random_udg_connected(50, side=3.0, seed=0)
        udg = unit_disk_graph(pos)
        delta = udg.max_degree()
        for name in ALGORITHMS:
            t = build(name, udg)
            vec = node_interference(t)
            assert np.all(vec >= t.degrees)
            assert vec.max() <= delta


class TestTheorem41:
    def test_omega_n_separation(self):
        """NNF-containing topologies are Omega(n) times worse than OPT."""
        from repro.topologies import build
        from repro.topologies.constructions import two_chains_optimal_tree

        ratios = []
        for m in (8, 16, 32):
            pos, groups = two_exponential_chains(m)
            udg = unit_disk_graph(pos, unit=float(2.0**m * 4))
            emst_i = graph_interference(build("emst", udg))
            opt_i = graph_interference(two_chains_optimal_tree(pos, groups))
            ratios.append(emst_i / opt_i)
        # ratio grows linearly in m (hence in n)
        assert ratios[1] > 1.7 * ratios[0]
        assert ratios[2] > 1.7 * ratios[1]


class TestSection51:
    def test_linear_chain_is_n_minus_2(self):
        for n in (8, 32, 128):
            assert graph_interference(linear_chain(exponential_chain(n))) == n - 2

    def test_aexp_sqrt_with_matching_lower_bound(self):
        """O(sqrt(n)) upper bound meets the sqrt(n) lower bound."""
        for n in (64, 256, 1024):
            ival = graph_interference(a_exp(exponential_chain(n)))
            assert math.sqrt(n) - 1 <= ival <= 1.25 * math.sqrt(2 * n)

    def test_exact_optimum_bracketed(self):
        from repro.opt import solve_opt

        for n in (5, 8, 10):
            outcome = solve_opt(exponential_chain(n))
            assert outcome.status == "optimal"
            opt = outcome.value
            assert math.sqrt(n) - 1e-9 <= opt
            assert opt <= graph_interference(a_exp(exponential_chain(n)))


class TestSection52:
    def test_agen_sqrt_delta_everywhere(self):
        from repro.geometry.generators import random_highway

        for seed in range(3):
            pos = random_highway(200, max_gap=0.07, seed=seed)
            delta = unit_disk_graph(pos).max_degree()
            assert graph_interference(a_gen(pos, delta=delta)) <= 3 * math.sqrt(delta)


class TestSection53:
    def test_aapx_beats_agen_where_it_should(self):
        pos = uniform_chain(120, spacing=0.01)
        assert graph_interference(a_apx(pos)) <= 2
        assert graph_interference(a_gen(pos)) >= 5

    def test_aapx_certified_ratio(self):
        """I(A_apx) / Omega(sqrt(gamma)) stays within O(Delta^(1/4))."""
        from repro.geometry.generators import random_highway
        from repro.highway.a_apx import a_apx as apx

        for seed in range(3):
            pos = random_highway(150, max_gap=0.2, seed=seed)
            topo, info = apx(pos, return_info=True)
            lb = max(info.lower_bound, 1.0)
            assert graph_interference(topo) / lb <= 4.0 * max(info.delta, 1) ** 0.25


class TestRobustness:
    def test_figure1_contrast(self):
        """One added node: receiver +<=2, sender jumps to ~n."""
        from repro.graphs.mst import euclidean_mst_edges
        from repro.interference.robustness import addition_report

        rng = np.random.default_rng(3)
        n = 60
        pos = rng.uniform(0, math.sqrt(n), size=(n, 2))
        t = Topology(pos, euclidean_mst_edges(pos))
        report = addition_report(t, (5 * math.sqrt(n), 0.0), [0])
        assert report.max_receiver_delta <= 2
        assert report.sender_after >= n - 2
        assert report.sender_before <= 12


class TestSimulationBridge:
    def test_static_measure_predicts_dynamics(self):
        """Receiver-centric I(v) correlates strongly with observed collision
        rates — the claim that the model 'corresponds to reality'."""
        from repro.experiments.sim_collisions import slotted_aloha
        from repro.mac.metrics import collision_interference_correlation

        pos = exponential_chain(35)
        t = linear_chain(pos)
        res = slotted_aloha(t, 0.15).run(3000, seed=2)
        corr, pval = collision_interference_correlation(t, res.collision_rate)
        assert corr > 0.9 and pval < 1e-6
