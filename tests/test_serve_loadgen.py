"""Tests for the seeded load generator and its SLO report."""

import json
import math

import pytest

from repro.serve import (
    InterferenceServer,
    LoadGenConfig,
    LoadGenReport,
    ServeConfig,
    build_requests,
    percentile,
    run_loadgen,
)
from tests.conftest import run_loop


def thread_config(**overrides) -> ServeConfig:
    base = dict(port=0, workers=2, executor="thread")
    base.update(overrides)
    return ServeConfig(**base)


class TestRequestStream:
    def test_deterministic_for_a_seed(self):
        config = LoadGenConfig(n_requests=50, seed=9)
        assert build_requests(config) == build_requests(config)

    def test_seed_changes_the_stream(self):
        a = build_requests(LoadGenConfig(n_requests=50, seed=1))
        b = build_requests(LoadGenConfig(n_requests=50, seed=2))
        assert a != b

    def test_stream_respects_the_mix(self):
        config = LoadGenConfig(
            n_requests=80, seed=3,
            mix=(("interference", 1), ("opt", 1)),
        )
        kinds = {kind for kind, _ in build_requests(config)}
        assert kinds == {"interference", "opt"}

    def test_instance_sizes_bounded(self):
        config = LoadGenConfig(n_requests=40, seed=5, n_nodes=20)
        for kind, params in build_requests(config):
            if kind in ("interference", "build_topology"):
                assert 10 <= params["args"]["n"] <= 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_requests": 0},
            {"mode": "sideways"},
            {"concurrency": 0},
            {"rate_rps": 0.0},
            {"mix": ()},
            {"mix": (("bogus_kind", 1),)},
            {"mix": (("interference", 0),)},
            {"opt_nodes": 40},
            {"deadline_ms": -1.0},
            {"slo_p99_ms": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            LoadGenConfig(**kwargs)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 10.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 99))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestReport:
    def test_slo_met_logic(self):
        report = LoadGenReport(mode="closed", seed=0, n_requests=10,
                               n_ok=10, p99_ms=5.0, slo_p99_ms=10.0)
        assert report.slo_met
        report.p99_ms = 20.0
        assert not report.slo_met
        report.p99_ms = 5.0
        report.protocol_errors = 1
        assert not report.slo_met  # protocol health always gates the SLO

    def test_no_slo_is_vacuously_met(self):
        report = LoadGenReport(mode="closed", seed=0, n_requests=1, n_ok=1)
        assert report.slo_met

    def test_jsonable_roundtrips_through_json(self):
        report = LoadGenReport(mode="open", seed=4, n_requests=7, n_ok=6,
                               rejections={"overloaded": 1}, wall_s=0.5,
                               throughput_rps=12.0, p50_ms=1.0, p95_ms=2.0,
                               p99_ms=3.0, mean_ms=1.5, max_ms=3.0)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["rejections"] == {"overloaded": 1}
        assert payload["latency_ms"]["p99"] == 3.0
        assert payload["slo_met"] is True

    def test_render_mentions_the_verdict(self):
        report = LoadGenReport(mode="closed", seed=0, n_requests=2, n_ok=2,
                               p50_ms=1.0, p95_ms=1.0, p99_ms=1.0,
                               mean_ms=1.0, max_ms=1.0, slo_p99_ms=9.0)
        assert "MET" in report.render()


class TestDrivingLoops:
    def test_closed_loop_end_to_end(self):
        config = LoadGenConfig(
            n_requests=40, mode="closed", concurrency=4, seed=7,
            slo_p99_ms=5_000.0,
        )

        async def scenario():
            async with InterferenceServer(thread_config()) as server:
                return await run_loadgen(config, port=server.port)

        report = run_loop(scenario())
        assert report.n_ok == 40
        assert report.protocol_errors == 0
        assert report.rejections == {}
        assert report.slo_met
        assert report.throughput_rps > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms <= report.max_ms
        assert sum(report.by_kind.values()) == 40

    def test_open_loop_overload_sheds_not_errors(self):
        # Offered load far past a one-worker, tiny-queue server: admission
        # control must shed explicitly while everything else completes.
        config = LoadGenConfig(
            n_requests=60, mode="open", rate_rps=4000.0, seed=11,
            mix=(("interference", 1),), n_nodes=32,
        )

        async def scenario():
            server_config = thread_config(
                workers=1, queue_limit=3, batch_max_size=1
            )
            async with InterferenceServer(server_config) as server:
                return await run_loadgen(config, port=server.port)

        report = run_loop(scenario())
        assert report.protocol_errors == 0
        assert report.n_ok + sum(report.rejections.values()) == 60
        assert report.rejections.get("overloaded", 0) > 0
        assert report.n_ok > 0
