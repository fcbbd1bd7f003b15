"""Registry round-trip over all three sections, and interference kwarg validation."""

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected
from repro.graphs import is_connected
from repro.interference.receiver import (
    average_interference,
    graph_interference,
    node_interference,
)
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import (
    ALGORITHMS,
    HIGHWAY_ALGORITHMS,
    OPTIMIZERS,
    build,
    is_highway,
    is_optimizer,
    registered_names,
)


@pytest.fixture(scope="module")
def udg32():
    pos = random_udg_connected(32, side=2.5, seed=21)
    return unit_disk_graph(pos, unit=1.0)


@pytest.fixture(scope="module")
def udg_split():
    """Two 16-node clusters 3 apart: a UDG with at least two components."""
    pos = random_udg_connected(16, side=1.0, seed=4)
    return unit_disk_graph(np.concatenate([pos, pos + (4.0, 0.0)]), unit=1.0)


class TestRegistrySections:
    def test_highway_algorithms_registered(self):
        assert set(HIGHWAY_ALGORITHMS) == {"a_exp", "a_gen", "a_apx", "linear_chain"}

    def test_optimizers_registered(self):
        assert set(OPTIMIZERS) == {"opt_exact", "opt_anneal", "opt_local"}

    def test_sections_are_pairwise_disjoint(self):
        assert not set(ALGORITHMS) & set(HIGHWAY_ALGORITHMS)
        assert not set(ALGORITHMS) & set(OPTIMIZERS)
        assert not set(HIGHWAY_ALGORITHMS) & set(OPTIMIZERS)

    def test_registered_names_is_sorted_union(self):
        names = registered_names()
        assert list(names) == sorted(names)
        assert set(names) == (
            set(ALGORITHMS) | set(HIGHWAY_ALGORITHMS) | set(OPTIMIZERS)
        )

    def test_is_highway(self):
        assert is_highway("a_exp") and is_highway("linear_chain")
        assert not is_highway("emst") and not is_highway("bogus")

    def test_is_optimizer(self):
        assert is_optimizer("opt_exact") and is_optimizer("opt_local")
        assert not is_optimizer("a_exp") and not is_optimizer("emst")
        assert not is_optimizer("bogus")

    def test_unknown_name_raises_with_known_list(self, udg32):
        with pytest.raises(KeyError, match="a_exp"):
            build("not_an_algorithm", udg32)

    def test_duplicate_registration_rejected(self):
        from repro.topologies.base import register

        with pytest.raises(ValueError, match="already registered"):
            register("emst")(lambda udg: udg)
        with pytest.raises(ValueError, match="already registered"):
            register("a_exp", highway=True)(lambda udg: udg)
        with pytest.raises(ValueError, match="already registered"):
            register("opt_local", optimizer=True)(lambda udg: udg)
        # cross-section collisions are rejected too
        with pytest.raises(ValueError, match="already registered"):
            register("emst", optimizer=True)(lambda udg: udg)

    def test_register_rejects_two_section_flags(self):
        from repro.topologies.base import register

        with pytest.raises(ValueError, match="exactly one"):
            register("impossible", highway=True, optimizer=True)


# optimizers run a search (opt_exact is exponential without a budget), so
# they get their own contract class on a smaller instance below
@pytest.mark.parametrize(
    "name", sorted(set(registered_names()) - set(OPTIMIZERS))
)
class TestRegistryRoundTrip:
    """Every non-optimizer registered name builds on a 32-node instance."""

    def test_builds_symmetric_topology(self, name, udg32):
        out = build(name, udg32)
        assert isinstance(out, Topology)
        assert out.n == udg32.n
        assert np.array_equal(out.positions, udg32.positions)
        # the edge array is canonical: u < v, unique rows — the symmetric
        # (undirected) representation enforced by the Topology contract
        edges = out.edges
        if edges.shape[0]:
            assert np.all(edges[:, 0] < edges[:, 1])
            assert len({tuple(e) for e in edges}) == edges.shape[0]
        # adjacency is symmetric
        for u, v in edges[: min(50, edges.shape[0])]:
            assert out.has_edge(int(u), int(v)) and out.has_edge(int(v), int(u))

    def test_interference_is_finite(self, name, udg32):
        out = build(name, udg32)
        vec = node_interference(out)
        assert vec.shape == (udg32.n,)
        assert np.all(vec >= 0) and np.all(vec < udg32.n)

    def test_is_connected_matches_graph_bfs(self, name, udg32, udg_split):
        """``Topology.is_connected`` (array label propagation over the
        edge array) agrees with BFS over the :class:`Graph` conversion,
        on a connected UDG and on one with several components."""
        for udg in (udg32, udg_split):
            out = build(name, udg)
            assert out.is_connected() == is_connected(out.as_graph())


class TestHighwayAdapters:
    def test_adapter_forwards_kwargs(self, udg32):
        narrow = build("a_gen", udg32, spacing=1)
        default = build("a_gen", udg32)
        assert isinstance(narrow, Topology) and isinstance(default, Topology)

    def test_a_apx_adapter_never_returns_tuple(self, udg32):
        out = build("a_apx", udg32, return_info=True)
        assert isinstance(out, Topology)

    def test_adapter_matches_direct_function(self, udg32):
        from repro.highway import a_exp

        assert build("a_exp", udg32) == a_exp(udg32.positions)


class TestOptimizerAdapters:
    """The OPTIMIZERS section: connected UDG-subgraph results, uniform
    build() resolution, kwarg forwarding into the solver config."""

    @pytest.fixture(scope="class")
    def udg12(self):
        pos = random_udg_connected(12, side=1.5, seed=5)
        return unit_disk_graph(pos, unit=1.0)

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_builds_connected_udg_subgraph(self, name, udg12):
        from repro.opt import OptConfig

        kwargs = (
            {"config": OptConfig(node_budget=2000)}
            if name in ("opt_exact", "opt_anneal")
            else {}
        )
        out = build(name, udg12, **kwargs)
        assert isinstance(out, Topology)
        assert out.n == udg12.n
        assert out.is_connected()
        assert is_connected(out.as_graph())
        # optimizer outputs stay inside the unit disk graph
        for u, v in out.edges:
            assert udg12.has_edge(int(u), int(v))

    def test_opt_local_is_deterministic(self, udg12):
        a = build("opt_local", udg12, seed=3)
        b = build("opt_local", udg12, seed=3)
        assert a == b

    def test_opt_exact_matches_direct_solver(self, udg12):
        from repro.interference.receiver import graph_interference
        from repro.opt import OptConfig, solve_opt

        cfg = OptConfig(node_budget=2000)
        via_registry = build("opt_exact", udg12, config=cfg)
        direct = solve_opt(udg12.positions, config=cfg)
        assert int(graph_interference(via_registry)) == direct.value


class TestInterferenceKwargValidation:
    """Typos must raise TypeError instead of being silently swallowed."""

    @pytest.mark.parametrize("fn", [graph_interference, average_interference])
    def test_typo_kwarg_raises(self, fn, udg32):
        with pytest.raises(TypeError, match="rtoll"):
            fn(udg32, rtoll=1e-6)

    @pytest.mark.parametrize("fn", [graph_interference, average_interference])
    def test_positional_options_rejected(self, fn, udg32):
        with pytest.raises(TypeError):
            fn(udg32, "brute")

    @pytest.mark.parametrize(
        "fn", [node_interference, graph_interference, average_interference]
    )
    def test_valid_keywords_accepted(self, fn, udg32):
        a = fn(udg32, method="brute", rtol=1e-9, atol=0.0)
        b = fn(udg32, method="batch", rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_unknown_method_still_valueerror(self, udg32):
        with pytest.raises(ValueError, match="unknown method"):
            graph_interference(udg32, method="quantum")
