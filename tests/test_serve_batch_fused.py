"""The serve layer's fused interference micro-batch lane.

``run_batch("interference", ...)`` with more than one item routes every
``auto``/``batch``-method item through one fused
:func:`repro.interference.batch.node_interference_many` array pass. The
contract: results are identical to per-item scalar execution, items
still fail independently, and the fusion is observable via counters.
"""

import numpy as np
import pytest

from repro import obs
from repro.serve.handlers import handle_interference, run_batch


def _inline_item(seed, n=60, measure="node", **extra):
    rng = np.random.default_rng(seed)
    params = {
        "positions": rng.uniform(0.0, 4.0, size=(n, 2)).tolist(),
        "unit": 1.5,
        "algorithm": "emst",
        "measure": measure,
    }
    params.update(extra)
    return params


MEASURES = ["graph", "average", "node"]


class TestFusedEqualsScalar:
    def test_mixed_measures_and_methods(self):
        items = [
            _inline_item(0, measure="graph"),
            _inline_item(1, measure="average", method="batch"),
            _inline_item(2, measure="node", method="auto"),
            _inline_item(3, measure="node", method="brute"),
            _inline_item(4, measure="graph", method="batch"),
            {
                "generator": "random_udg_connected",
                "args": {"n": 40, "side": 3.0, "seed": 7},
                "measure": "node",
            },
            _inline_item(5, measure="sender"),
        ]
        got = run_batch("interference", items)
        for item, res in zip(items, got):
            assert res["ok"], res
            assert res["result"] == handle_interference(item)

    def test_grid_items_are_rejected_alone(self):
        """``method="grid"`` is no kernel: its items fail with the valid
        methods named, and the rest still fuse."""
        methods = ["grid", "batch", "grid", "auto", "grid"]
        items = [
            _inline_item(s, measure="node", method=m)
            for s, m in enumerate(methods)
        ]
        with obs.capture() as trace:
            got = run_batch("interference", items)
        for method, res in zip(methods, got):
            if method == "grid":
                assert not res["ok"]
                assert "auto, brute or batch" in res["error"]
            else:
                assert res["ok"], res
        assert trace.counters.get("serve.interference.fused", 0) == 2

    @pytest.mark.parametrize("measure", MEASURES)
    def test_single_measure_batches(self, measure):
        items = [_inline_item(s, measure=measure) for s in range(5)]
        got = run_batch("interference", items)
        want = [handle_interference(it) for it in items]
        assert [r["result"] for r in got] == want

    def test_fusion_counter_increments(self):
        items = [_inline_item(s, measure="node") for s in range(4)]
        with obs.capture() as trace:
            run_batch("interference", items)
        assert trace.counters.get("serve.interference.fused", 0) == 4
        assert trace.counters.get("serve.interference.fuse_fallback", 0) == 0

    def test_explicit_scalar_methods_not_fused(self):
        items = [_inline_item(s, method="brute") for s in range(3)]
        with obs.capture() as trace:
            got = run_batch("interference", items)
        assert trace.counters.get("serve.interference.fused", 0) == 0
        want = [handle_interference(it) for it in items]
        assert [r["result"] for r in got] == want

    def test_fuse_fallback_preserves_results(self, monkeypatch):
        import repro.serve.handlers as handlers

        def boom(topos, **kw):
            raise RuntimeError("injected fusion failure")

        monkeypatch.setattr(
            "repro.interference.batch.node_interference_many", boom
        )
        items = [_inline_item(s, measure="node") for s in range(3)]
        with obs.capture() as trace:
            got = run_batch("interference", items)
        assert trace.counters.get("serve.interference.fuse_fallback", 0) == 1
        want = [handle_interference(it) for it in items]
        assert [r["result"] for r in got] == want


class TestErrorIndependence:
    def test_bad_item_does_not_poison_batch(self):
        items = [
            _inline_item(0, measure="node"),
            {"positions": [[0.0, 0.0]], "measure": "bogus"},
            _inline_item(1, measure="node"),
            {"generator": "no_such_gen", "measure": "node"},
            _inline_item(2, measure="graph", method="warp"),
        ]
        got = run_batch("interference", items)
        assert [r["ok"] for r in got] == [True, False, True, False, False]
        assert "unknown measure" in got[1]["error"]
        assert "unknown generator" in got[3]["error"]
        assert "'method' must be auto, brute or batch" in got[4]["error"]
        for idx in (0, 2):
            assert got[idx]["result"] == handle_interference(items[idx])

    def test_bool_unit_rejected(self):
        items = [
            _inline_item(0, measure="graph"),
            _inline_item(1, measure="graph", unit=True),
        ]
        got = run_batch("interference", items)
        assert got[0]["ok"]
        assert not got[1]["ok"]
        assert "'unit' must be a positive number" in got[1]["error"]

    def test_bool_unit_rejected_scalar_handler(self):
        with pytest.raises(ValueError, match="'unit' must be a positive"):
            handle_interference(_inline_item(0, unit=False))


class TestWireValues:
    """Handler results serialize to the same JSON as the library values
    converted element by element (``int(v)`` / ``float(r)`` per entry)."""

    @staticmethod
    def _topo(seed):
        from repro.model.udg import unit_disk_graph
        from repro.topologies import build

        params = _inline_item(seed)
        return build("emst", unit_disk_graph(np.array(params["positions"]), unit=1.5))

    def test_measures_match_library_functions(self):
        import json

        from repro.interference.receiver import (
            average_interference,
            graph_interference,
            node_interference,
        )
        from repro.serve.handlers import MEASURES

        for seed in range(3):
            topo = self._topo(seed)
            want = {
                "graph": int(graph_interference(topo)),
                "average": float(average_interference(topo)),
                "node": [int(v) for v in node_interference(topo)],
            }
            for measure, value in want.items():
                got = MEASURES[measure](topo)
                assert json.dumps(got) == json.dumps(value)
                assert type(got) is type(value)

    def test_lists_are_plain_python(self):
        import json

        from repro.serve.handlers import handle_build_topology

        params = _inline_item(0)
        topo = self._topo(0)
        built = handle_build_topology(params)
        assert json.dumps(built["radii"]) == json.dumps(
            [float(r) for r in topo.radii]
        )
        assert built["edges"] == [[int(u), int(v)] for u, v in topo.edges]
        region = handle_interference({**params, "region": [0.0, 0.0, 2.0, 2.0]})
        assert all(type(i) is int for i in region["ids"] + region["value"])
