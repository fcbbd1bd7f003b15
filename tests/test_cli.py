"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8_aexp" in out and "thm56_aapx" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig2_sample"]) == 0
        out = capsys.readouterr().out
        assert "I(v)" in out

    def test_run_with_json_dir(self, capsys, tmp_path):
        assert main(["run", "fig2_sample", "--json-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fig2_sample.json").read_text())
        assert payload["experiment_id"] == "fig2_sample"

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "bogus"])

    def test_seed_override(self, capsys):
        assert main(["run", "fig1_robustness", "--seed", "11"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_churn_subcommand(self, capsys, tmp_path):
        out_json = tmp_path / "churn.json"
        assert (
            main(
                [
                    "churn",
                    "--n",
                    "25",
                    "--events",
                    "12",
                    "--loss",
                    "0.15",
                    "--seed",
                    "4",
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "churn n=25" in out and "loss xtc p=0.15" in out
        payload = json.loads(out_json.read_text())
        assert payload["experiment_id"] == "churn_resilience"
        assert all(entry["match"] for entry in payload["data"]["loss"])

    def test_opt_subcommand(self, capsys, tmp_path):
        out_json = tmp_path / "opt.json"
        assert (
            main(
                [
                    "opt",
                    "exp_chain",
                    "--n",
                    "8",
                    "--seed",
                    "0",
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "opt: exp_chain n=8" in out
        assert "OPT = 4" in out and "proven optimal" in out
        assert "certificate: VERIFIED" in out
        payload = json.loads(out_json.read_text())
        assert payload["value"] == 4 and payload["lower_bound"] == 4
        assert payload["status"] == "optimal"
        assert payload["certificate"]["digest"]

    def test_opt_budgeted_bracket(self, capsys):
        assert main(["opt", "exp_chain", "--n", "14", "--node-budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "<= OPT <=" in out and "certified bracket" in out
        assert "certificate: VERIFIED" in out

    def test_opt_unknown_instance(self):
        with pytest.raises(SystemExit):
            main(["opt", "bogus_family"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_names_the_repro_program(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro ")

    def test_report_requires_out(self):
        with pytest.raises(SystemExit):
            main(["report"])


class TestSweepCli:
    def _sweep(self, tmp_path, *extra):
        return main(
            [
                "sweep",
                "fig2_sample",
                "fig7_linear_chain",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--manifest",
                str(tmp_path / "manifest.json"),
                *extra,
            ]
        )

    def test_cold_then_warm(self, capsys, tmp_path):
        assert self._sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2 task(s), 0 cache hit(s), 2 miss(es)" in out
        assert self._sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2 cache hit(s), 0 miss(es)" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["totals"]["cache_hits"] == 2
        assert all(t["cache_hit"] for t in manifest["tasks"])

    def test_json_dir_matches_serial_payloads(self, capsys, tmp_path):
        assert self._sweep(tmp_path, "--json-dir", str(tmp_path / "json")) == 0
        capsys.readouterr()
        from repro import experiments

        sweep_payload = json.loads(
            (tmp_path / "json" / "fig2_sample.json").read_text()
        )
        serial_payload = json.loads(experiments.run("fig2_sample").to_json())
        assert sweep_payload["rows"] == serial_payload["rows"]
        assert sweep_payload["data"] == serial_payload["data"]

    def test_param_and_seed_grid(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "fig1_robustness",
                    "--no-cache",
                    "--param",
                    "sizes=[[10,20],[10,30]]",
                    "--seeds",
                    "2",
                    "--manifest",
                    str(tmp_path / "m.json"),
                ]
            )
            == 0
        )
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["totals"]["tasks"] == 4  # 2 param combos x 2 seeds
        seeds = {t["kwargs"]["seed"] for t in manifest["tasks"]}
        assert len(seeds) == 2

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(KeyError):
            main(["sweep", "bogus", "--no-cache"])

    def test_no_cache_never_hits(self, capsys, tmp_path):
        for _ in range(2):
            assert (
                main(
                    [
                        "sweep",
                        "fig2_sample",
                        "--no-cache",
                        "--manifest",
                        str(tmp_path / "m.json"),
                    ]
                )
                == 0
            )
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["totals"]["cache_hits"] == 0


class TestServeCli:
    def test_loadgen_self_host_round_trip(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        assert (
            main(
                [
                    "loadgen",
                    "--self-host",
                    "--executor",
                    "thread",
                    "--requests",
                    "30",
                    "--seed",
                    "1",
                    "--slo-p99-ms",
                    "5000",
                    "--json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "self-hosted server" in out
        assert "SLO: p99 <= 5000 ms -> MET" in out
        payload = json.loads(out_json.read_text())
        assert payload["n_ok"] == 30
        assert payload["protocol_errors"] == 0
        assert payload["slo_met"] is True

    def test_loadgen_missed_slo_exits_nonzero(self, capsys):
        # An impossible SLO must fail the run visibly (exit 1).
        assert (
            main(
                [
                    "loadgen",
                    "--self-host",
                    "--executor",
                    "thread",
                    "--requests",
                    "10",
                    "--slo-p99-ms",
                    "0.000001",
                ]
            )
            == 1
        )
        assert "MISSED" in capsys.readouterr().out

    def test_mix_parsing(self):
        from repro.cli import _parse_mix

        assert _parse_mix("interference=8,opt") == (
            ("interference", 8),
            ("opt", 1),
        )
        assert _parse_mix("experiment=3") == (("experiment", 3),)

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown request type"):
            main(["loadgen", "--self-host", "--mix", "bogus=1"])

    def test_serve_rejects_unknown_executor(self):
        with pytest.raises(SystemExit):
            main(["serve", "--executor", "carrier-pigeon"])

    def test_sweep_task_timeout_flag(self, capsys, tmp_path):
        manifest_path = tmp_path / "m.json"
        with pytest.raises(RuntimeError, match="sweep task"):
            main(
                [
                    "sweep",
                    "diag_sleep",
                    "--no-cache",
                    "--param",
                    "seconds=[0.2]",
                    "--task-timeout",
                    "0.05",
                    "--manifest",
                    str(manifest_path),
                ]
            )
        out = capsys.readouterr().out
        assert "[timeout]" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tasks"][0]["status"] == "timeout"


class TestTraceCli:
    def test_trace_prints_span_tree_and_counters(self, capsys):
        assert main(["trace", "fig1_robustness"]) == 0
        out = capsys.readouterr().out
        assert "trace: fig1_robustness" in out
        # >= 3 nesting levels: trace > experiment.* > interference.node
        assert "experiment.fig1_robustness" in out
        assert "interference.node" in out
        assert "└─" in out and "   " in out
        assert "counters:" in out
        assert "interference.method.brute" in out

    def test_trace_reports_depth_at_least_three(self, capsys):
        assert main(["trace", "fig1_robustness"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        match = re.search(r"(\d+) level\(s\)", header)
        assert match is not None, header
        assert int(match.group(1)) >= 3

    def test_trace_protocol_counters(self, capsys):
        assert main(["trace", "distributed_tc"]) == 0
        out = capsys.readouterr().out
        assert "protocol.messages" in out and "protocol.rounds" in out
        assert "distributed.run" in out

    def test_trace_out_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "fig2_sample", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        from repro.obs import read_trace_jsonl

        data = read_trace_jsonl(path)
        names = [s["name"] for s in data["spans"]]
        assert names[0] == "trace"
        assert any(n.startswith("experiment.") for n in names)
        assert data["counters"]["experiment.runs"] == 1

    def test_trace_result_flag(self, capsys):
        assert main(["trace", "fig2_sample", "--result"]) == 0
        out = capsys.readouterr().out
        assert "I(v)" in out  # the experiment table came along

    def test_trace_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["trace", "bogus"])

    def test_trace_leaves_observability_disabled(self, capsys):
        from repro import obs

        assert main(["trace", "fig2_sample"]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_sweep_trace_out_reconciles_with_manifest(self, capsys, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        manifest_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "sweep",
                    "fig2_sample",
                    "fig7_linear_chain",
                    "--no-cache",
                    "--manifest",
                    str(manifest_path),
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace:" in out
        from repro.obs import read_trace_jsonl
        from repro.runner import RunManifest

        data = read_trace_jsonl(trace_path)
        manifest = RunManifest.from_json(manifest_path.read_text())
        task_spans = [s for s in data["spans"] if s["name"] == "runner.task"]
        assert len(task_spans) == manifest.n_tasks == 2
        for span in task_spans:
            record = next(
                t for t in manifest.tasks if t.index == span["attrs"]["index"]
            )
            assert record.experiment_id == span["attrs"]["experiment_id"]
            assert abs(record.wall_time_s - span["duration_s"]) < 1e-9
        assert data["counters"]["runner.cache.miss"] == 2
