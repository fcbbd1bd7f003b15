"""Differential suite: the stream engine's scalar delta loop against frozen
per-event references.

``StreamEngine.apply`` used to run three per-event methods,
``_apply_join``, ``_apply_leave`` and ``_apply_move``, next to the inlined
loop behind ``apply_many``. Both now run one loop, ``_apply_scalar``.
``RefStreamEngine`` below keeps the three methods, with the ``apply``
that dispatched to them and the per-slot ``state_digest`` /
``state_json`` formulas, as they were: inline, test-only, over its own
state.

The engine must match them exactly, through ``apply(collect=True)``,
``apply(collect=False)``, ``apply_many`` and any mix of the three:

- the same ``state_digest`` and ``state_json``;
- the same ``AppliedEvent.changed`` tuples, in order;
- the same ``StreamStateError`` messages and applied prefixes.

The workloads cover every event family, negative coordinates across the
truncated double-width cell 0, pairs at ``dx² + dy² == r²`` exactly,
``r = 0`` and ``r = r_max`` (with coincident points), and coordinates
near 10¹² where float rounding widens a scan window past the 2x2 block.
``recompute_counts`` stays the independent exact recount of the result.
"""

from __future__ import annotations

import hashlib

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
from repro.stream.engine import AppliedEvent

# -- frozen reference ----------------------------------------------------------

_GRID_STRIDE = 1 << 32


class RefStreamEngine:
    """The per-event ``StreamEngine.apply`` path as it was before the one
    scalar loop replaced it (no bulk tier, no ``apply_many``)."""

    def __init__(self, config: StreamConfig):
        self.config = config
        cap = config.capacity
        self.xs = [0.0] * cap
        self.ys = [0.0] * cap
        self.rs = [0.0] * cap
        self.active = bytearray(cap)
        self.counts = [0] * cap
        self.n_active = 0
        self.seq = 0
        self._cell = 3.0 * float(config.r_max)
        self._inv = 1.0 / self._cell
        self._pad = self._cell * 1e-9
        self._grid: dict[int, list[int]] = {}

    def apply(self, event, *, collect=True) -> AppliedEvent:
        kind = event.kind
        if kind == "join":
            changed = self._apply_join(
                event.node, event.x, event.y, event.r, collect
            )
        elif kind == "leave":
            changed = self._apply_leave(event.node, collect)
        else:
            changed = self._apply_move(
                event.node, event.x, event.y, event.r, collect
            )
        self.seq += 1
        return AppliedEvent(
            self.seq, event, tuple(changed) if changed is not None else None
        )

    def _check_node(self, node):
        if not 0 <= node < self.config.capacity:
            raise StreamStateError(
                f"node {node} outside universe [0, {self.config.capacity})"
            )

    def _check_radius(self, r):
        if r < 0 or r > self.config.r_max:
            raise StreamStateError(
                f"radius {r} outside [0, r_max={self.config.r_max}]"
            )

    def _apply_join(self, node, x, y, r, collect):
        self._check_node(node)
        self._check_radius(r)
        if self.active[node]:
            raise StreamStateError(f"join of already-active node {node}")
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        inv = self._inv
        grid = self._grid
        get = grid.get
        key = int(x * inv) * _GRID_STRIDE + int(y * inv)
        r2 = r * r
        own = 0
        changed = [] if collect else None
        reach = self.config.r_max + self._pad
        cx0, cx1 = int((x - reach) * inv), int((x + reach) * inv)
        cy0, cy1 = int((y - reach) * inv), int((y + reach) * inv)
        for cx in range(cx0, cx1 + 1):
            base = cx * _GRID_STRIDE
            for k in range(base + cy0, base + cy1 + 1):
                bucket = get(k)
                if not bucket:
                    continue
                for v in bucket:
                    dx = xs[v] - x
                    dy = ys[v] - y
                    d2 = dx * dx + dy * dy
                    if d2 <= r2:
                        counts[v] += 1
                        if collect:
                            changed.append((v, counts[v]))
                    rv = rs[v]
                    if d2 <= rv * rv:
                        own += 1
        xs[node] = x
        ys[node] = y
        rs[node] = r
        counts[node] = own
        self.active[node] = 1
        self.n_active += 1
        bucket = get(key)
        if bucket is None:
            grid[key] = [node]
        else:
            bucket.append(node)
        if collect:
            changed.append((node, own))
        return changed

    def _apply_leave(self, node, collect):
        self._check_node(node)
        if not self.active[node]:
            raise StreamStateError(f"leave of inactive node {node}")
        xs, ys, counts = self.xs, self.ys, self.counts
        x, y, r = xs[node], ys[node], self.rs[node]
        inv = self._inv
        grid = self._grid
        get = grid.get
        key = int(x * inv) * _GRID_STRIDE + int(y * inv)
        grid[key].remove(node)
        if not grid[key]:  # the engine keeps no empty bucket
            del grid[key]
        r2 = r * r
        changed = [] if collect else None
        reach = r + self._pad
        cx0, cx1 = int((x - reach) * inv), int((x + reach) * inv)
        cy0, cy1 = int((y - reach) * inv), int((y + reach) * inv)
        for cx in range(cx0, cx1 + 1):
            base = cx * _GRID_STRIDE
            for k in range(base + cy0, base + cy1 + 1):
                bucket = get(k)
                if not bucket:
                    continue
                for v in bucket:
                    dx = xs[v] - x
                    dy = ys[v] - y
                    if dx * dx + dy * dy <= r2:
                        counts[v] -= 1
                        if collect:
                            changed.append((v, counts[v]))
        counts[node] = 0
        self.rs[node] = 0.0
        self.active[node] = 0
        self.n_active -= 1
        return changed

    def _apply_move(self, node, x, y, r, collect):
        self._check_node(node)
        if not self.active[node]:
            raise StreamStateError(f"move of inactive node {node}")
        if r is None:
            r = self.rs[node]
        self._check_radius(r)
        if not collect:
            self._apply_leave(node, False)
            self._apply_join(node, x, y, r, False)
            return None
        counts = self.counts
        pre = {node: counts[node]}
        for v, c in self._apply_leave(node, True):
            pre.setdefault(v, c + 1)
        for v, c in self._apply_join(node, x, y, r, True):
            if v != node:
                pre.setdefault(v, c - 1)
        return [
            (v, counts[v]) for v in sorted(pre) if v == node or counts[v] != pre[v]
        ]

    def state_digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"seq={self.seq};n={self.n_active};".encode())
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        for i in range(self.config.capacity):
            if self.active[i]:
                h.update(
                    f"{i}:{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]};".encode()
                )
        return h.hexdigest()

    def state_json(self) -> str:
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        nodes = ",".join(
            f"[{i},{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]}]"
            for i in range(self.config.capacity)
            if self.active[i]
        )
        return f'{{"seq":{self.seq},"nodes":[{nodes}]}}'


# -- drivers -------------------------------------------------------------------


def _apply_one(engine, ref, event, collect):
    """One ``apply`` on both sides: equal result or equal rejection."""
    try:
        want = ref.apply(event, collect=collect)
    except StreamStateError as exc:
        with pytest.raises(StreamStateError) as info:
            engine.apply(event, collect=collect)
        assert str(info.value) == str(exc)
        return 1
    assert engine.apply(event, collect=collect) == want
    return 0


def _apply_chunk(engine, ref, chunk):
    """``apply_many`` against the reference's per-event loop; returns
    how many events were consumed (the applied prefix plus a rejected
    event, if any) and whether one was rejected."""
    for k, event in enumerate(chunk):
        try:
            ref.apply(event, collect=False)
        except StreamStateError as exc:
            with pytest.raises(StreamStateError) as info:
                engine.apply_many(chunk)
            assert str(info.value) == str(exc)
            assert engine.seq == ref.seq
            return k + 1, 1
    assert engine.apply_many(chunk) == ref.seq
    return len(chunk), 0


def _run(config, events, mode, seed=0):
    """Drive both engines through ``events``; returns the rejection count.

    ``mode``: ``"collect"`` / ``"nocollect"`` apply one event at a time,
    ``"many"`` feeds ``apply_many`` chunks of seeded sizes, and
    ``"mixed"`` interleaves all three.
    """
    engine = StreamEngine(config)
    ref = RefStreamEngine(config)
    rng = np.random.default_rng(seed)
    rejected = i = 0
    while i < len(events):
        step = mode
        if mode == "mixed":
            step = ("collect", "nocollect", "many")[int(rng.integers(3))]
        if step == "many":
            size = int(rng.choice([1, 2, 7, 40, 160]))
            used, bad = _apply_chunk(engine, ref, events[i : i + size])
        else:
            used, bad = 1, _apply_one(engine, ref, events[i], step == "collect")
        i += used
        rejected += bad
        assert engine.seq == ref.seq
        assert engine.state_digest() == ref.state_digest()
    assert engine.state_json() == ref.state_json()
    np.testing.assert_array_equal(
        engine.node_interference(), engine.recompute_counts()
    )
    return rejected


def _inject_rejections(events, capacity, r_max, seed, every=9):
    """Seeded invalid events spliced into a well-formed stream: joins of
    ids that joined before, leaves and moves of ids that may be inactive,
    ids outside the universe, and radii above ``r_max``."""
    rng = np.random.default_rng(seed)
    seen: list[int] = []
    out = []
    for event in events:
        out.append(event)
        if event.kind == "join":
            seen.append(event.node)
        if not seen or rng.random() >= 1.0 / every:
            continue
        node = seen[int(rng.integers(len(seen)))]
        x = event.x if event.x is not None else 0.0
        y = event.y if event.y is not None else 0.0
        pick = int(rng.integers(6))
        if pick == 0:
            out.append(StreamEvent("join", node, x=x, y=y, r=r_max))
        elif pick == 1:
            out.append(StreamEvent("leave", int(rng.integers(capacity))))
        elif pick == 2:
            out.append(StreamEvent("move", int(rng.integers(capacity)), x=x, y=y))
        elif pick == 3:
            out.append(StreamEvent("leave", capacity + int(rng.integers(3))))
        elif pick == 4:
            out.append(StreamEvent("join", node, x=x, y=y, r=r_max * 1.5))
        else:
            out.append(StreamEvent("move", node, x=x, y=y, r=r_max * 2.0))
    return out


def _custom_events(n, capacity, seed, draw_xy, radii, p_leave=0.2, p_move=0.35):
    """A well-formed stream whose positions and radii come from the given
    draws; half the moves carry a new radius."""
    rng = np.random.default_rng(seed)
    free = list(range(capacity - 1, -1, -1))
    alive: list[int] = []
    events = []
    for _ in range(n):
        u = rng.random()
        kind = "leave" if u < p_leave else "move" if u < p_leave + p_move else "join"
        if kind != "join" and not alive:
            kind = "join"
        if kind == "join" and not free:
            kind = "move"
        if kind == "leave":
            node = alive.pop(int(rng.integers(len(alive))))
            free.append(node)
            events.append(StreamEvent("leave", node))
            continue
        x, y = draw_xy(rng)
        r = float(radii[int(rng.integers(len(radii)))])
        if kind == "move":
            node = alive[int(rng.integers(len(alive)))]
            events.append(
                StreamEvent("move", node, x=x, y=y, r=r if rng.random() < 0.5 else None)
            )
        else:
            node = free.pop()
            alive.append(node)
            events.append(StreamEvent("join", node, x=x, y=y, r=r))
    return events


MODES = ("collect", "nocollect", "many", "mixed")


# -- workloads -----------------------------------------------------------------


class TestFamilies:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    @pytest.mark.parametrize(
        "capacity, side", [(300, 10.0), (500, 1e6)], ids=["dense", "sparse"]
    )
    def test_matches_reference(self, capacity, side, family, mode):
        events = random_stream_events(
            500, capacity=capacity, side=side, r_max=1.0, seed=capacity + 7,
            family=family,
        )
        config = StreamConfig(capacity=capacity, r_max=1.0)
        assert _run(config, events, mode, seed=3) == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_injected_rejections(self, family, mode):
        events = random_stream_events(
            400, capacity=120, side=6.0, r_max=1.0, seed=11, family=family
        )
        events = _inject_rejections(events, 120, 1.0, seed=5)
        config = StreamConfig(capacity=120, r_max=1.0)
        assert _run(config, events, mode, seed=4) > 0

    @pytest.mark.parametrize("mode", ["many", "mixed"])
    def test_bulk_tier_batches(self, mode):
        # capacity 2000 on a 20x20 square: dense enough that 600-event
        # apply_many chunks take the vectorized bulk tier
        events = random_stream_events(
            3000, capacity=2000, side=20.0, r_max=1.0, seed=2, family="clustered"
        )
        config = StreamConfig(capacity=2000, r_max=1.0)
        engine = StreamEngine(config)
        ref = RefStreamEngine(config)
        bulk_seqs = []
        bulk = engine._apply_many_bulk

        def spy(batch):
            seq = bulk(batch)
            bulk_seqs.append(seq)
            return seq

        engine._apply_many_bulk = spy
        for start in range(0, len(events), 600):
            chunk = events[start : start + 600]
            if mode == "mixed" and start % 1200:
                # the bulk tier splices grid buckets in the scalar loop's
                # order, so a later scan lists the same hits in order
                for event in chunk:
                    want = ref.apply(event)
                    got = engine.apply(event)
                    assert got == want
            else:
                assert _apply_chunk(engine, ref, chunk) == (len(chunk), 0)
            assert engine.state_digest() == ref.state_digest()
            # the same buckets, each with the same nodes in the same order
            assert engine._grid == ref._grid
        assert engine.state_json() == ref.state_json()
        assert any(seq is not None for seq in bulk_seqs)


class TestGeometry:
    @pytest.mark.parametrize("mode", MODES)
    def test_negative_coordinates_across_cell_zero(self, mode):
        # int() truncates, so cell 0 spans (-cell, cell): windows around
        # the origin merge buckets on both sides of it
        r_max = 1.0
        cell = 3.0 * r_max

        def draw(rng):
            return tuple(
                round(float(rng.uniform(-2 * cell, 2 * cell)), 6) for _ in "xy"
            )

        events = _custom_events(
            700, 150, seed=21, draw_xy=draw, radii=[0.3, 0.7, r_max]
        )
        assert any(e.x is not None and e.x < 0 for e in events)
        config = StreamConfig(capacity=150, r_max=r_max)
        _run(config, _inject_rejections(events, 150, r_max, seed=6), mode, seed=5)

    @pytest.mark.parametrize("mode", MODES)
    def test_exact_boundary_pairs(self, mode):
        # dyadic lattice: every coordinate and radius is exact, and pairs
        # such as (0, 0)-(0.75, 1.0) at r = 1.25 sit at dx² + dy² == r²
        r_max = 1.25
        radii = [0.25, 0.5, 0.75, 1.0, r_max]

        def draw(rng):
            return tuple(float(rng.integers(-8, 9)) * 0.25 for _ in "xy")

        events = _custom_events(600, 100, seed=8, draw_xy=draw, radii=radii)
        joined = [(e.x, e.y) for e in events if e.kind != "leave"]
        ties = sum(
            (ax - bx) ** 2 + (ay - by) ** 2 == r * r
            for ax, ay in joined[:60]
            for bx, by in joined[:60]
            for r in radii
        )
        assert ties > 0
        config = StreamConfig(capacity=100, r_max=r_max)
        _run(config, events, mode, seed=6)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_and_max_radius_with_coincident_points(self, mode):
        r_max = 0.5

        def draw(rng):
            # a handful of sites, so many nodes share a position
            return tuple(float(rng.integers(-3, 4)) * 0.375 for _ in "xy")

        events = _custom_events(600, 80, seed=13, draw_xy=draw, radii=[0.0, r_max])
        assert {e.r for e in events if e.kind == "join"} == {0.0, r_max}
        config = StreamConfig(capacity=80, r_max=r_max)
        _run(config, events, mode, seed=7)

    @pytest.mark.parametrize("mode", MODES)
    def test_huge_coordinates_take_the_generic_window(self, mode):
        # near ±1e12 one ulp (2**-13) exceeds r_max, so x ± reach rounds
        # out by up to an ulp and some windows span 3 cells per axis
        r_max = 7e-5
        ulp = 2.0**-13
        inv = 1.0 / (3.0 * r_max)
        pad = 3.0 * r_max * 1e-9

        def draw(rng):
            return (
                1e12 + float(rng.integers(-6, 7)) * ulp,
                -1e12 + float(rng.integers(-6, 7)) * ulp,
            )

        events = _custom_events(
            500, 90, seed=17, draw_xy=draw, radii=[0.0, 3e-5, r_max]
        )

        def span(c, reach):
            return int((c + reach) * inv) - int((c - reach) * inv)

        assert any(
            max(span(e.x, r_max + pad), span(e.y, r_max + pad)) >= 2
            for e in events
            if e.x is not None
        )
        config = StreamConfig(capacity=90, r_max=r_max)
        _run(config, events, mode, seed=8)


class TestMoveFolding:
    def test_move_lists_net_change_sorted(self):
        config = StreamConfig(capacity=8, r_max=1.0)
        engine = StreamEngine(config)
        for node, x in enumerate([0.0, 0.5, 1.5, 3.0]):
            engine.apply(StreamEvent("join", node, x=x, y=0.0, r=1.0))
        # node 1 moves from 0.5 to 2.5: node 0 loses it, node 2 is
        # covered both before and after (net 0), node 3 gains it
        before = {v: engine.counts[v] for v in engine.active_nodes()}
        applied = engine.apply(StreamEvent("move", 1, x=2.5, y=0.0))
        assert [v for v, _ in applied.changed] == sorted(v for v, _ in applied.changed)
        changed = dict(applied.changed)
        assert 2 not in changed
        assert changed[0] == before[0] - 1
        assert changed[3] == before[3] + 1
        assert changed[1] == engine.counts[1]

    def test_rejected_move_changes_nothing(self):
        config = StreamConfig(capacity=4, r_max=1.0)
        engine = StreamEngine(config)
        engine.apply(StreamEvent("join", 0, x=0.0, y=0.0, r=1.0))
        digest = engine.state_digest()
        with pytest.raises(StreamStateError, match="radius 2.0 outside"):
            engine.apply(StreamEvent("move", 0, x=1.0, y=1.0, r=2.0))
        with pytest.raises(StreamStateError, match="move of inactive node 1"):
            engine.apply(StreamEvent("move", 1, x=1.0, y=1.0))
        assert engine.state_digest() == digest
