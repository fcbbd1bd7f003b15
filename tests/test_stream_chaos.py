"""Seeded chaos harness: kill/recover/resume cycles must converge exactly."""

from repro.faults import FaultPlan
from repro.stream import chaos_suite, render_chaos_results, store_bytes
from repro.stream.chaos import chaos_run, expected_wal_bytes
from repro.stream.events import random_stream_events


class TestChaosSuite:
    def test_inprocess_suite_all_exact(self, tmp_path):
        results = chaos_suite(
            tmp_path, 6, seed=0, n_events=400, capacity=256, side=8.0
        )
        assert len(results) == 6
        assert all(r.ok for r in results)
        assert not any(r.detected_corruption for r in results)
        # the plan's crash mixture exercises both signatures
        kinds = {r.crash_kind for r in results}
        assert kinds == {"abort", "torn"}
        # families rotate so every topology family is killed at least once
        assert {r.family for r in results} == {"uniform", "clustered", "mobile"}
        # at least one run must land the crash inside a record
        assert any(r.torn_tail for r in results)

    def test_runs_are_deterministic_given_the_seed(self, tmp_path):
        a = chaos_run(tmp_path / "a", 1, seed=7, n_events=200, capacity=128)
        b = chaos_run(tmp_path / "b", 1, seed=7, n_events=200, capacity=128)
        assert a.kill_fraction == b.kill_fraction
        assert a.crash_kind == b.crash_kind
        assert a.survived_seq == b.survived_seq
        assert a.recovered_digest == b.recovered_digest

    def test_kill_fractions_are_plan_seeded(self):
        plan = FaultPlan(seed=3)
        fracs = [plan.chaos_uniform(run, 0) for run in range(8)]
        assert all(0.0 <= f < 1.0 for f in fracs)
        assert len(set(fracs)) == len(fracs)  # distinct per run
        # and reproducible
        assert fracs == [FaultPlan(seed=3).chaos_uniform(r, 0) for r in range(8)]

    def test_expected_wal_bytes_matches_actual_ingest(self, tmp_path):
        from repro.stream import DurableStreamEngine, StreamConfig

        events = random_stream_events(
            50, capacity=64, side=5.0, r_max=1.0, seed=1, family="uniform"
        )
        engine = DurableStreamEngine.create(
            tmp_path / "s",
            StreamConfig(capacity=64, r_max=1.0, snapshot_every=0, fsync=False),
        )
        engine.apply_batch(events)
        engine.close()
        assert store_bytes(tmp_path / "s") == expected_wal_bytes(events)

    def test_passed_runs_leave_no_directory(self, tmp_path):
        # the uniform then the rotation suite into one directory, as CI
        # runs them: a passed run's directory must not be reused
        uniform = chaos_suite(tmp_path, 3, seed=0, n_events=200, capacity=128)
        assert "all exact" in render_chaos_results(uniform)
        assert list(tmp_path.iterdir()) == []
        rotation = chaos_suite(
            tmp_path, 3, seed=11, n_events=400, capacity=256, side=8.0,
            target="rotation",
        )
        assert "all exact" in render_chaos_results(rotation)

    def test_render_is_humane(self, tmp_path):
        results = chaos_suite(tmp_path, 2, seed=0, n_events=150, capacity=128)
        text = render_chaos_results(results)
        assert "all exact" in text
        assert text.count("\n") == len(results) + 1  # header + rows + verdict


class TestTargetedChaos:
    def test_rotation_kill_points_recover_exactly(self, tmp_path):
        # crashes aimed within ~120 bytes of segment-seal boundaries: the
        # seal+open window is where a torn *sealed* segment would appear
        # if rotation ever skipped the flush
        results = chaos_suite(
            tmp_path, 4, seed=11, n_events=400, capacity=256, side=8.0,
            target="rotation",
        )
        assert all(r.ok for r in results)
        assert all(r.target == "rotation" for r in results)
        # the chaos config's 2 KiB segments force real rotations, so the
        # targeted kill points exist (a fallback to uniform would defeat
        # the test's purpose)
        assert all(r.target_bytes < r.total_bytes for r in results)

    def test_compaction_kill_points_resume_idempotently(self, tmp_path):
        results = chaos_suite(
            tmp_path, 4, seed=5, n_events=400, capacity=256, side=8.0,
            target="compaction",
        )
        assert all(r.ok for r in results)
        # compaction never loses state: the whole stream survives the kill
        assert all(r.survived_seq == r.n_events for r in results)
        assert all(not r.torn_tail for r in results)

    def test_compaction_target_requires_inprocess(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            chaos_run(tmp_path / "x", 0, target="compaction", mode="subprocess")

    def test_chaos_segments_rotate(self, tmp_path):
        # sanity: with 2 KiB segments a 400-event run really is segmented
        r = chaos_run(tmp_path / "s", 2, seed=0, n_events=400, capacity=256)
        assert r.ok
        assert len(list(( tmp_path / "s").glob("wal-*.jsonl"))) >= 2
