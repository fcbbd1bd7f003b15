"""Event-sourced incremental interference engine over a node universe.

The paper's robustness theorem (one join changes any receiver's
interference by at most +1, Fig. 1) is the contract that makes an
event-sourced engine viable: every event induces a *small, bounded,
incrementally applicable* delta. :class:`StreamEngine` maintains the
receiver-centric coverage counts ``I(v)`` under ``join``/``leave``/
``move`` events in O(neighbourhood) per event:

- positions, radii and counts live in flat per-node arrays over a
  pre-allocated universe of ``config.capacity`` ids;
- a uniform spatial hash with cell size ``3 * config.r_max`` indexes
  the active nodes. Because every radius is bounded by ``r_max``, both
  directions of an event's delta (who the node now covers, who covers
  the node) are confined to the cells overlapping a ``±r_max`` window
  around it — at this cell size at most a 2x2 block, which cuts the
  per-event probe count (cell lookups) to roughly a third of the
  classic cell-size-``r_max`` 3x3 scan while probing the same area.
  This is the O(1)-neighbourhood argument of Korman's bounded-radius
  formulation;
- one scalar delta loop (:meth:`StreamEngine._apply_scalar`) applies
  every event, whether it comes through :meth:`~StreamEngine.apply` or
  :meth:`~StreamEngine.apply_many`; large batches over a dense active
  set take a vectorized bulk tier instead, with identical results;
- coverage uses *exact* squared-distance comparison (``dx*dx + dy*dy <=
  r*r``, no tolerance): determinism is the point, since recovery must
  replay to a bit-identical state. :func:`recompute_counts` reproduces
  the same arithmetic vectorized, so an independent from-scratch recount
  agrees exactly, not approximately.

The engine is deliberately free of any I/O; durability (WAL, snapshots,
recovery) wraps it in :mod:`repro.stream.durable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro import obs
from repro.stream.config import StreamConfig
from repro.stream.events import StreamEvent

__all__ = ["AppliedEvent", "StreamEngine", "StreamStateError"]


class StreamStateError(ValueError):
    """An event that is invalid against the current engine state
    (join of an active node, leave/move of an inactive one, id out of
    range, radius above ``r_max``)."""


@dataclass(frozen=True, slots=True)
class AppliedEvent:
    """Result of applying one event.

    ``changed`` lists ``(node, new_count)`` for every *active* node whose
    interference changed (for a join this includes the joining node's own
    fresh count; a departed node is not listed — it no longer has an
    interference value). ``None`` when the engine was asked not to
    collect deltas (the hot-ingest path).
    """

    seq: int
    event: StreamEvent
    changed: tuple[tuple[int, int], ...] | None


_GRID_STRIDE = 1 << 32


def _window_keys(x: float, y: float, reach: float, inv: float) -> tuple:
    """Grid keys of the cells overlapping the square ``x ± reach``,
    ``y ± reach``, column by column (``inv`` is the inverse cell size).

    A delta window is ``2 * (r + pad) < 3 * r_max`` wide, under one cell,
    so it spans at most 2 cells per axis: the 1x1, 1x2, 2x1 and 2x2
    blocks come back as literal tuples (~6x cheaper than a generator).
    The comprehension is the fallback for the rest, e.g. |coord| near
    2**50 cells, where rounding by an ulp can widen the integer span.
    """
    cx0 = int((x - reach) * inv)
    cx1 = int((x + reach) * inv)
    cy0 = int((y - reach) * inv)
    cy1 = int((y + reach) * inv)
    b0 = cx0 * _GRID_STRIDE
    if cx1 == cx0:
        if cy1 == cy0:
            return (b0 + cy0,)
        if cy1 == cy0 + 1:
            return (b0 + cy0, b0 + cy1)
    elif cx1 == cx0 + 1:
        b1 = b0 + _GRID_STRIDE
        if cy1 == cy0:
            return (b0 + cy0, b1 + cy0)
        if cy1 == cy0 + 1:
            return (b0 + cy0, b0 + cy1, b1 + cy0, b1 + cy1)
    return tuple(
        cx * _GRID_STRIDE + cy
        for cx in range(cx0, cx1 + 1)
        for cy in range(cy0, cy1 + 1)
    )

#: Below this many events per :meth:`StreamEngine.apply_many` call the
#: scalar delta loop wins; at or above it (and when the batch is large
#: relative to the active set) the vectorized bulk path amortizes its
#: fixed numpy costs (state mirror, two grid builds) over the batch.
_BULK_MIN_EVENTS = 512


def _exact_disk_pairs(index, centers, radii, point_radii=None):
    """``(query, point)`` pairs within each query's ``radii`` under the
    engine's exact predicate ``dx*dx + dy*dy <= r*r``, where ``r`` is the
    query's radius, or the point's when ``point_radii`` is given (who
    covers the query). Not ``hypot``, and so not
    :meth:`GridIndex._batch_hits`: replay determinism requires
    bit-compatibility with the scalar delta loop."""
    qs = [np.empty(0, dtype=np.int64)]
    ps = [np.empty(0, dtype=np.int64)]
    if len(index):
        for q, t in index._candidates(centers[:, 0], centers[:, 1], radii):
            qs.append(q)
            ps.append(index._order[t])
    qq, cand = np.concatenate(qs), np.concatenate(ps)
    dx = index.positions[cand, 0] - centers[qq, 0]
    dy = index.positions[cand, 1] - centers[qq, 1]
    r = radii[qq] if point_radii is None else point_radii[cand]
    keep = dx * dx + dy * dy <= r * r
    return qq[keep], cand[keep]


class StreamEngine:
    """Incremental receiver-centric interference over a mutable node set."""

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
        # keys come from int(coord * _inv): one multiply instead of a
        # float floor-division per axis. int() truncates while // floors,
        # but the key function only has to be monotone and consistent —
        # a truncation-merged pair of cells is just a merged bucket.
        self._inv = 1.0 / self._cell
        # scan windows are padded by a hair beyond the exact reach so a
        # float predicate that rounds *into* the disk can never involve a
        # node sitting just past an unprobed cell boundary
        self._pad = self._cell * 1e-9
        # cell (cx, cy) -> node list, keyed by cx * _GRID_STRIDE + cy:
        # one int hash instead of a tuple allocation per probe. A |cy| >=
        # _GRID_STRIDE/2 collision merely merges buckets — every
        # membership decision re-checks coordinates, so correctness never
        # depends on key uniqueness.
        self._grid: dict[int, list[int]] = {}
        # cached float64 mirror of (xs, ys, rs) for the bulk-apply path;
        # any scalar mutation invalidates it (set to None)
        self._np: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- queries -----------------------------------------------------------

    def interference_of(self, node: int) -> int:
        if not (0 <= node < self.config.capacity) or not self.active[node]:
            raise StreamStateError(f"node {node} is not active")
        return self.counts[node]

    def _active_ids(self) -> np.ndarray:
        """Active node ids, ascending: one vectorized scan of the
        ``active`` bytes, not a Python loop over the capacity."""
        return np.flatnonzero(np.frombuffer(self.active, np.uint8))

    def active_nodes(self) -> list[int]:
        return self._active_ids().tolist()

    def node_interference(self) -> np.ndarray:
        """Counts over the whole universe (inactive entries are 0)."""
        return np.asarray(self.counts, dtype=np.int64)

    def max_interference(self) -> int:
        counts = self.counts
        return max((counts[i] for i in self.active_nodes()), default=0)

    def region_read(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[tuple[int, int]]:
        """``(node, count)`` for active nodes inside the closed rectangle,
        in node-id order. Probes the overlapped grid cells, or, when they
        outnumber the grid's buckets, filters the buckets instead: a read
        never costs more than one pass over the grid, whatever its area.
        Non-finite bounds raise :class:`StreamStateError`."""
        inv = self._inv
        grid = self._grid
        try:
            cx0, cx1 = int(xmin * inv), int(xmax * inv)
            cy0, cy1 = int(ymin * inv), int(ymax * inv)
        except (OverflowError, ValueError):
            bounds = (xmin, ymin, xmax, ymax)
            if not all(map(math.isfinite, bounds)):
                raise StreamStateError(
                    f"region bounds must be finite, got {bounds}"
                ) from None
            n_cells = math.inf  # past float range in cell units
        else:
            # an inverted rectangle matches nothing on either path
            n_cells = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        xs, ys, counts = self.xs, self.ys, self.counts
        if n_cells > len(grid):  # fewer occupied buckets than cells
            out = [
                (v, counts[v])
                for bucket in grid.values()
                for v in bucket
                if xmin <= xs[v] <= xmax and ymin <= ys[v] <= ymax
            ]
        else:
            out = []
            for cx in range(cx0, cx1 + 1):
                base = cx * _GRID_STRIDE
                for cy in range(cy0, cy1 + 1):
                    for v in grid.get(base + cy, ()):
                        if xmin <= xs[v] <= xmax and ymin <= ys[v] <= ymax:
                            out.append((v, counts[v]))
        out.sort()
        return out

    # -- event application -------------------------------------------------

    def apply(
        self, event: StreamEvent, *, seq: int | None = None, collect: bool = True
    ) -> AppliedEvent:
        """Apply one event; returns its :class:`AppliedEvent`.

        ``seq`` (when given, e.g. during WAL replay) must be exactly
        ``self.seq + 1`` — replay is contiguous by construction, and a
        gap means the log lost records.

        With ``collect``, ``changed`` lists the covered hits in scan
        order (see :meth:`_apply_scalar`). A move's halves fold into its
        net change, sorted by node: a node hit by both the retraction
        (-1) and the new disk (+1) did not change and is not listed.
        """
        if seq is not None and seq != self.seq + 1:
            raise StreamStateError(
                f"non-contiguous seq {seq} (engine at {self.seq})"
            )
        if not collect:
            return AppliedEvent(self._apply_scalar((event,), None), event, None)
        changed: list[tuple[int, int]] = []
        seq = self._apply_scalar((event,), changed)
        if event.kind == "move":
            net: dict[int, int] = {}
            for v, c in changed:  # a second sighting cancels the first
                if net.pop(v, None) is None:
                    net[v] = c
            changed = sorted(net.items())
        return AppliedEvent(seq, event, tuple(changed))

    def apply_batch(
        self, events, *, collect: bool = False
    ) -> list[AppliedEvent]:
        """Apply events in order, one :class:`AppliedEvent` each (deltas
        off by default). Bulk ingest that needs no per-event results
        should call :meth:`apply_many`."""
        out = [self.apply(e, collect=collect) for e in events]
        obs.count("stream.events", len(out))
        return out

    def apply_many(self, events) -> int:
        """Bulk-apply; returns the final seqno.

        Semantically ``for e in events: self.apply(e, collect=False)``:
        the same state (same digests) and the same
        :class:`StreamStateError` rejections, after which the applied
        prefix stands, ``self.seq`` included. Large batches (>=
        ``_BULK_MIN_EVENTS``, not small beside the active set) over a
        dense active set (>= ~4 nodes per grid cell) take the vectorized
        :meth:`_apply_many_bulk`; the rest run :meth:`_apply_scalar`
        (the measured ratios are in docs/PERFORMANCE.md).
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if (
            len(events) >= _BULK_MIN_EVENTS
            and 4 * len(events) >= self.n_active
            and self.n_active >= 4 * max(len(self._grid), 1)
        ):
            seq = self._apply_many_bulk(events)
            if seq is not None:
                return seq
        return self._apply_scalar(events, None)

    def _apply_scalar(self, events, changed: list | None) -> int:
        """The engine's one per-event delta loop; returns the final seqno.

        Each event is validated before it mutates anything, so a
        rejection leaves exactly the applied prefix (``self.seq``
        included). A list ``changed`` receives ``(v, new_count)`` at each
        covered hit, retractions first, then a join's (or a move's
        second half's) hits and the node's own fresh count.
        """
        self._np = None
        xs, ys, rs = self.xs, self.ys, self.rs
        counts, active, grid = self.counts, self.active, self._grid
        get = grid.get
        window = _window_keys
        inv = self._inv
        cap = self.config.capacity
        r_max = self.config.r_max
        pad = self._pad
        rpad = r_max + pad
        S = _GRID_STRIDE
        seq = self.seq
        n_active = self.n_active
        try:
            for event in events:
                kind = event.kind
                node = event.node
                if not 0 <= node < cap:
                    raise StreamStateError(
                        f"node {node} outside universe [0, {cap})"
                    )
                if kind == "join":
                    x, y, r = event.x, event.y, event.r
                    if r < 0 or r > r_max:
                        raise StreamStateError(
                            f"radius {r} outside [0, r_max={r_max}]"
                        )
                    if active[node]:
                        raise StreamStateError(
                            f"join of already-active node {node}"
                        )
                else:
                    if not active[node]:
                        raise StreamStateError(f"{kind} of inactive node {node}")
                    if kind == "move":  # an atomic leave + join
                        x, y, r = event.x, event.y, event.r
                        if r is None:
                            r = rs[node]
                        if r < 0 or r > r_max:
                            raise StreamStateError(
                                f"radius {r} outside [0, r_max={r_max}]"
                            )
                    # retract the current disk: only the node's own
                    # coverage goes, so the window is its own radius. An
                    # emptied bucket goes too, so len(grid) counts occupied
                    # cells whichever path applied the history.
                    ox, oy, orr = xs[node], ys[node], rs[node]
                    key = int(ox * inv) * S + int(oy * inv)
                    bucket = grid[key]
                    bucket.remove(node)
                    if not bucket:
                        del grid[key]
                    r2 = orr * orr
                    for k in window(ox, oy, orr + pad, inv):
                        bucket = get(k)
                        if bucket:
                            for v in bucket:
                                dx = xs[v] - ox
                                dy = ys[v] - oy
                                if dx * dx + dy * dy <= r2:
                                    counts[v] -= 1
                                    if changed is not None:
                                        changed.append((v, counts[v]))
                    active[node] = 0
                    n_active -= 1
                    if kind == "leave":
                        counts[node] = 0
                        rs[node] = 0.0
                        seq += 1
                        continue
                # join (a join, or the second half of a move): the node is
                # in no bucket here, so the scan never sees it. Both delta
                # directions are bounded by r_max, so the window is ±r_max
                # whatever the joining radius.
                r2 = r * r
                own = 0
                for k in window(x, y, rpad, inv):
                    bucket = get(k)
                    if bucket:
                        for v in bucket:
                            dx = xs[v] - x
                            dy = ys[v] - y
                            d2 = dx * dx + dy * dy
                            if d2 <= r2:
                                counts[v] += 1
                                if changed is not None:
                                    changed.append((v, counts[v]))
                            rv = rs[v]
                            if d2 <= rv * rv:
                                own += 1
                xs[node] = x
                ys[node] = y
                rs[node] = r
                counts[node] = own
                active[node] = 1
                n_active += 1
                key = int(x * inv) * S + int(y * inv)
                bucket = get(key)
                if bucket is None:
                    grid[key] = [node]
                else:
                    bucket.append(node)
                if changed is not None:
                    changed.append((node, own))
                seq += 1
        finally:
            self.seq = seq
            self.n_active = n_active
        return seq

    def _apply_many_bulk(self, events) -> int | None:
        """Vectorized whole-batch apply; ``None`` means "use the scalar
        path instead" (invalid batch, or state the fast path can't take).

        Final counts are a pure function of the *final* active set, so a
        valid batch needs no per-event coverage updates at all:

        1. simulate membership over the touched nodes only (pure dict
           ops) to validate every event exactly as the scalar loop would
           — any rejection falls back to the scalar loop, which applies
           the same prefix and raises the identical error;
        2. retract the initial disks of touched nodes from the initial
           active set (delta pass A), apply their final disks over the
           final active set (pass B), and recount the touched survivors'
           own coverage fresh (pass C) — each pass one fused array query
           over a :class:`~repro.geometry.spatial.GridIndex`, with the
           engine's *exact* ``dx*dx + dy*dy <= r*r`` predicate;
        3. commit: bincount deltas onto untouched victims, overwrite the
           touched nodes' state (Python floats, so snapshots and digests
           stay byte-identical to the scalar path), splice grid buckets
           in last-event order, so every bucket lists its nodes as the
           scalar loop would have left them.
        """
        from repro.geometry.spatial import GridIndex

        cap = self.config.capacity
        r_max = self.config.r_max
        xs, ys, rs = self.xs, self.ys, self.rs
        counts, active, grid = self.counts, self.active, self._grid

        # -- 1: validate by membership simulation (no mutation) ------------
        # Each event re-inserts its node, so ``st`` ends in last-event
        # order: the order in which the scalar loop's final appends leave
        # touched survivors in their grid buckets (step 3 splices them so).
        st: dict[int, tuple | None] = {}
        for event in events:
            node = event.node
            if not 0 <= node < cap:
                return None
            if node in st:
                cur = st.pop(node)
            elif active[node]:
                cur = (xs[node], ys[node], rs[node])
            else:
                cur = None
            kind = event.kind
            if kind == "join":
                r = event.r
                if r < 0 or r > r_max or cur is not None:
                    return None
                st[node] = (event.x, event.y, r)
            elif kind == "leave":
                if cur is None:
                    return None
                st[node] = None
            else:
                if cur is None:
                    return None
                r = event.r
                if r is None:
                    r = cur[2]
                if r < 0 or r > r_max:
                    return None
                st[node] = (event.x, event.y, r)

        # -- mirror + index inputs -----------------------------------------
        mirror = self._np or tuple(
            np.asarray(a, dtype=np.float64) for a in (xs, ys, rs)
        )
        mx, my, mr = mirror
        ids0 = self._active_ids()
        t_init = [t for t in st if active[t]]
        t_fin = [t for t in st if st[t] is not None]
        fin_mask = np.zeros(cap, dtype=bool)
        fin_mask[ids0] = True
        for t, fin in st.items():
            fin_mask[t] = fin is not None
        ids_f = np.flatnonzero(fin_mask)

        pos0 = np.column_stack((mx[ids0], my[ids0]))
        fx, fy, fr = np.array(
            [st[t] for t in t_fin], dtype=np.float64
        ).reshape(-1, 3).T
        pos_f = np.column_stack((mx[ids_f], my[ids_f]))
        r_f = mr[ids_f].copy()
        if t_fin:
            where = np.searchsorted(ids_f, np.asarray(t_fin, dtype=np.int64))
            pos_f[where, 0] = fx
            pos_f[where, 1] = fy
            r_f[where] = fr
        if not (
            np.isfinite(pos0).all()
            and np.isfinite(pos_f).all()
        ):
            return None  # GridIndex requires finite coords; scalar doesn't

        delta = np.zeros(cap, dtype=np.int64)
        cell = self._cell

        # -- 2a: retract initial touched disks from the initial set --------
        if t_init and ids0.size:
            ti = np.asarray(t_init, dtype=np.int64)
            index0 = GridIndex(pos0, cell_size=cell)
            _, cand = _exact_disk_pairs(
                index0, np.column_stack((mx[ti], my[ti])), mr[ti]
            )
            if cand.size:
                delta -= np.bincount(ids0[cand], minlength=cap)

        index_f = (
            GridIndex(pos_f, cell_size=cell) if ids_f.size else None
        )

        # -- 2b: apply final touched disks over the final set --------------
        if t_fin and index_f is not None:
            _, cand = _exact_disk_pairs(
                index_f, np.column_stack((fx, fy)), fr
            )
            if cand.size:
                delta += np.bincount(ids_f[cand], minlength=cap)

        # -- 2c: fresh own-counts for touched survivors --------------------
        own = np.zeros(len(t_fin), dtype=np.int64)
        if t_fin and index_f is not None:
            # candidates within +-r_max of each survivor; covered iff the
            # *candidate's* disk reaches (reverse direction of 2a/2b)
            qq, _ = _exact_disk_pairs(
                index_f, np.column_stack((fx, fy)),
                np.full(len(t_fin), r_max), point_radii=r_f,
            )
            own += np.bincount(qq, minlength=len(t_fin))
            own -= 1  # each survivor's own disk trivially covers itself

        # -- 3: commit ------------------------------------------------------
        inv = self._inv
        S = _GRID_STRIDE
        n_active = self.n_active
        for v in np.flatnonzero(delta):
            counts[v] += int(delta[v])
        for j, t in enumerate(t_fin):
            st[t] = (*st[t], int(own[j]))
        for t, fin in st.items():
            if active[t]:
                key = int(xs[t] * inv) * S + int(ys[t] * inv)
                bucket = grid[key]
                bucket.remove(t)
                if not bucket:
                    del grid[key]
                n_active -= 1
                active[t] = 0
            if fin is None:
                rs[t] = 0.0
                mr[t] = 0.0
                counts[t] = 0
            else:
                x, y, r, c = fin
                xs[t] = x
                ys[t] = y
                rs[t] = r
                mx[t] = x
                my[t] = y
                mr[t] = r
                counts[t] = c
                active[t] = 1
                n_active += 1
                grid.setdefault(int(x * inv) * S + int(y * inv), []).append(t)
        self.n_active = n_active
        self.seq += len(events)
        self._np = mirror
        return self.seq

    # -- from-scratch verification ----------------------------------------

    def recompute_counts(self, *, chunk: int = 512) -> np.ndarray:
        """Independent vectorized recount over the whole universe.

        Uses the same IEEE arithmetic as the incremental path
        (``dx*dx + dy*dy <= r*r`` in float64), so agreement is *exact*.
        O(active^2) in ``chunk``-row blocks; verification-path only.
        """
        cap = self.config.capacity
        idx = self._active_ids()
        out = np.zeros(cap, dtype=np.int64)
        if idx.size == 0:
            return out
        px = np.asarray(self.xs, dtype=np.float64)[idx]
        py = np.asarray(self.ys, dtype=np.float64)[idx]
        pr = np.asarray(self.rs, dtype=np.float64)[idx]
        r2 = pr * pr
        acc = np.zeros(idx.size, dtype=np.int64)
        for lo in range(0, idx.size, chunk):
            hi = min(lo + chunk, idx.size)
            dx = px[lo:hi, None] - px[None, :]
            dy = py[lo:hi, None] - py[None, :]
            d2 = dx * dx + dy * dy
            cover = d2 <= r2[lo:hi, None]  # row u covers column v
            acc += cover.sum(axis=0)
        acc -= 1  # every node's own disk trivially covers its own position
        out[idx] = acc
        return out

    def state_digest(self) -> str:
        """SHA-256 over the canonical active-node state (order, exact
        float reprs, counts, seq) — two engines are bit-identical iff
        their digests match."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"seq={self.seq};n={self.n_active};".encode())
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        for i in self.active_nodes():
            h.update(f"{i}:{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]};".encode())
        return h.hexdigest()

    # -- snapshot support --------------------------------------------------

    def state_jsonable(self) -> dict:
        """Sparse full state (active nodes only), JSON round-trip exact."""
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        nodes = [[i, xs[i], ys[i], rs[i], counts[i]] for i in self.active_nodes()]
        return {"seq": self.seq, "nodes": nodes}

    def state_json(self) -> str:
        """Compact snapshot JSON, byte-identical to
        ``json.dumps(self.state_jsonable(), separators=(",", ":"))`` but
        built directly — snapshot serialization is the main cost of a
        snapshot at large ``n_active``, and this halves it."""
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        nodes = ",".join(
            f"[{i},{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]}]"
            for i in self.active_nodes()
        )
        return f'{{"seq":{self.seq},"nodes":[{nodes}]}}'

    @classmethod
    def from_state(cls, config: StreamConfig, state: dict) -> "StreamEngine":
        engine = cls(config)
        nodes = state["nodes"]
        xs, ys, rs = engine.xs, engine.ys, engine.rs
        counts, active, grid = engine.counts, engine.active, engine._grid
        inv = engine._inv
        for i, x, y, r, c in nodes:
            i = int(i)
            xs[i] = x
            ys[i] = y
            rs[i] = r
            counts[i] = int(c)
            active[i] = 1
            grid.setdefault(
                int(x * inv) * _GRID_STRIDE + int(y * inv), []
            ).append(i)
        engine.n_active = active.count(1)
        engine.seq = int(state["seq"])
        # the bulk tier's float64 mirror, filled from the rows in
        # O(active): a recovery's tail replay then never converts the
        # three capacity-long lists
        rows = np.fromiter(
            chain.from_iterable(nodes), np.float64, 5 * len(nodes)
        ).reshape(-1, 5)
        mirror = np.zeros((3, config.capacity))
        mirror[:, rows[:, 0].astype(np.int64)] = rows[:, 1:4].T
        engine._np = tuple(mirror)
        return engine
