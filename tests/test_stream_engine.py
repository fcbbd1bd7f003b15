"""StreamEngine: incremental deltas vs from-scratch recount, exactly."""

import json

import numpy as np
import pytest

from repro.stream import (
    EVENT_FAMILIES,
    StreamConfig,
    StreamEngine,
    StreamEvent,
    StreamStateError,
    random_stream_events,
)


def small_config(**overrides) -> StreamConfig:
    base = dict(capacity=64, r_max=1.0, snapshot_every=0)
    base.update(overrides)
    return StreamConfig(**base)


class TestApply:
    def test_join_counts_both_directions(self):
        engine = StreamEngine(small_config())
        engine.apply(StreamEvent("join", 0, 0.0, 0.0, 1.0))
        engine.apply(StreamEvent("join", 1, 0.5, 0.0, 1.0))
        # each disk covers the other node's position
        assert engine.interference_of(0) == 1
        assert engine.interference_of(1) == 1
        engine.apply(StreamEvent("join", 2, 10.0, 10.0, 0.5))
        assert engine.interference_of(2) == 0

    def test_leave_reverts_join_exactly(self):
        engine = StreamEngine(small_config())
        engine.apply(StreamEvent("join", 0, 0.0, 0.0, 1.0))
        before = engine.state_digest()
        engine.apply(StreamEvent("join", 1, 0.5, 0.5, 1.0))
        engine.apply(StreamEvent("leave", 1))
        after = engine.state_digest()
        # digests differ only through seq; counts/positions are identical
        assert engine.interference_of(0) == 0
        assert before != after  # seq advanced, so digests legitimately differ
        np.testing.assert_array_equal(
            engine.node_interference(), engine.recompute_counts()
        )

    def test_move_equals_leave_then_join(self):
        a = StreamEngine(small_config())
        b = StreamEngine(small_config())
        for e in [
            StreamEvent("join", 0, 0.0, 0.0, 1.0),
            StreamEvent("join", 1, 0.5, 0.0, 0.8),
            StreamEvent("join", 2, 2.0, 2.0, 1.0),
        ]:
            a.apply(e)
            b.apply(e)
        a.apply(StreamEvent("move", 1, 2.1, 2.1, 0.9))
        b.apply(StreamEvent("leave", 1))
        b.apply(StreamEvent("join", 1, 2.1, 2.1, 0.9))
        np.testing.assert_array_equal(
            a.node_interference(), b.node_interference()
        )

    def test_robustness_bound_join_deltas_are_plus_one(self):
        # the paper's robustness theorem, per event: one join raises any
        # other receiver's interference by at most (exactly) +1
        engine = StreamEngine(small_config())
        events = random_stream_events(
            60, capacity=32, side=4.0, r_max=1.0, seed=3, family="uniform"
        )
        for ev in events:
            before = {v: engine.counts[v] for v in engine.active_nodes()}
            applied = engine.apply(ev, collect=True)
            if ev.kind == "join":
                for v, c in applied.changed:
                    if v != ev.node:
                        assert c == before[v] + 1
            elif ev.kind == "leave":
                for v, c in applied.changed:
                    assert c == before[v] - 1

    def test_changed_lists_match_state_diff(self):
        engine = StreamEngine(small_config())
        events = random_stream_events(
            120, capacity=48, side=5.0, r_max=1.0, seed=11, family="mobile"
        )
        for ev in events:
            before = dict(enumerate(engine.counts))
            active_before = bytes(engine.active)
            applied = engine.apply(ev, collect=True)
            reported = dict(applied.changed)
            for v in range(engine.config.capacity):
                if not engine.active[v]:
                    continue
                if engine.counts[v] != before[v] or not active_before[v]:
                    assert reported[v] == engine.counts[v]
            # every reported node is active with the reported count
            for v, c in applied.changed:
                assert engine.active[v] and engine.counts[v] == c


class TestValidation:
    def test_rejections(self):
        engine = StreamEngine(small_config())
        engine.apply(StreamEvent("join", 0, 0.0, 0.0, 1.0))
        with pytest.raises(StreamStateError):
            engine.apply(StreamEvent("join", 0, 1.0, 1.0, 1.0))
        with pytest.raises(StreamStateError):
            engine.apply(StreamEvent("leave", 5))
        with pytest.raises(StreamStateError):
            engine.apply(StreamEvent("move", 7, 0.0, 0.0, 0.5))
        with pytest.raises(StreamStateError):
            engine.apply(StreamEvent("join", 99, 0.0, 0.0, 0.5))
        with pytest.raises(StreamStateError):
            engine.apply(StreamEvent("join", 1, 0.0, 0.0, 2.0))  # r > r_max
        # a rejected event must not advance seq or corrupt state
        assert engine.seq == 1
        np.testing.assert_array_equal(
            engine.node_interference(), engine.recompute_counts()
        )

    def test_replay_seq_must_be_contiguous(self):
        engine = StreamEngine(small_config())
        engine.apply(StreamEvent("join", 0, 0.0, 0.0, 1.0), seq=1)
        with pytest.raises(StreamStateError, match="non-contiguous"):
            engine.apply(StreamEvent("join", 1, 1.0, 1.0, 1.0), seq=3)


class TestExactness:
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_incremental_matches_vectorized_recount(self, family):
        engine = StreamEngine(small_config(capacity=128))
        events = random_stream_events(
            400, capacity=128, side=6.0, r_max=1.0, seed=7, family=family
        )
        for i, ev in enumerate(events):
            engine.apply(ev)
            if i % 97 == 0:
                np.testing.assert_array_equal(
                    engine.node_interference(), engine.recompute_counts()
                )
        np.testing.assert_array_equal(
            engine.node_interference(), engine.recompute_counts()
        )

    def test_region_read_matches_bruteforce(self):
        engine = StreamEngine(small_config(capacity=128))
        for ev in random_stream_events(
            300, capacity=128, side=6.0, r_max=1.0, seed=5, family="clustered"
        ):
            engine.apply(ev)
        box = (1.0, 1.0, 4.5, 3.0)
        expected = sorted(
            (v, engine.counts[v])
            for v in engine.active_nodes()
            if box[0] <= engine.xs[v] <= box[2]
            and box[1] <= engine.ys[v] <= box[3]
        )
        assert engine.region_read(*box) == expected

    def test_state_roundtrip_is_bit_identical(self):
        engine = StreamEngine(small_config(capacity=128))
        for ev in random_stream_events(
            250, capacity=128, side=6.0, r_max=1.0, seed=9, family="mobile"
        ):
            engine.apply(ev)
        # through JSON, as snapshots do
        state = json.loads(json.dumps(engine.state_jsonable()))
        clone = StreamEngine.from_state(engine.config, state)
        assert clone.state_digest() == engine.state_digest()
        assert clone.max_interference() == engine.max_interference()
        # and the clone keeps evolving identically: re-apply a leave+join
        # of an existing active node to both
        node = engine.active_nodes()[0]
        for target in (engine, clone):
            target.apply(StreamEvent("move", node, 0.25, 0.25, 0.5))
        assert clone.state_digest() == engine.state_digest()


class TestSnapshotScan:
    """The snapshot and query methods read the active ids from one numpy
    scan of the ``active`` bytes; their output must stay byte-identical
    to the per-slot Python loops they replaced."""

    @staticmethod
    def _legacy(engine):
        import hashlib

        cap = engine.config.capacity
        act, xs, ys, rs, counts = (
            engine.active, engine.xs, engine.ys, engine.rs, engine.counts
        )
        ids = [i for i in range(cap) if act[i]]
        h = hashlib.sha256()
        h.update(f"seq={engine.seq};n={engine.n_active};".encode())
        for i in range(cap):
            if act[i]:
                h.update(
                    f"{i}:{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]};".encode()
                )
        nodes = [[i, xs[i], ys[i], rs[i], counts[i]] for i in ids]
        body = ",".join(
            f"[{i},{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]}]" for i in ids
        )
        return {
            "ids": ids,
            "max": max((c for i, c in enumerate(counts) if act[i]), default=0),
            "digest": h.hexdigest(),
            "jsonable": {"seq": engine.seq, "nodes": nodes},
            "json": f'{{"seq":{engine.seq},"nodes":[{body}]}}',
        }

    @pytest.mark.parametrize("family", ["uniform", "clustered"])
    def test_matches_the_per_slot_loops_on_a_churned_engine(self, family):
        config = small_config(capacity=3000)
        engine = StreamEngine(config)
        events = random_stream_events(
            6000, capacity=3000, side=20.0, r_max=1.0, seed=17, family=family
        )
        for k, start in enumerate(range(0, len(events), 1500)):
            engine.apply_batch(events[start:start + 1500])
            want = self._legacy(engine)
            # churn leaves holes: ids are neither a prefix nor contiguous
            assert 0 < len(want["ids"]) < config.capacity
            assert engine.active_nodes() == want["ids"]
            assert all(type(i) is int for i in engine.active_nodes())
            assert engine.max_interference() == want["max"]
            assert engine.state_digest() == want["digest"]
            assert engine.state_jsonable() == want["jsonable"]
            assert engine.state_json() == want["json"]
            assert json.dumps(
                engine.state_jsonable(), separators=(",", ":")
            ) == want["json"]

    def test_empty_engine(self):
        engine = StreamEngine(small_config())
        want = self._legacy(engine)
        assert engine.active_nodes() == []
        assert engine.max_interference() == 0
        assert engine.state_digest() == want["digest"]
        assert engine.state_json() == want["json"] == '{"seq":0,"nodes":[]}'
