"""Uniform grid spatial index for radius queries.

The index buckets points into square cells of a fixed ``cell_size``. A radius
query then only inspects the O((r / cell_size + 1)^2) cells overlapping the
query disk instead of all n points, which turns UDG construction and
interference counting into near-linear work for bounded-density instances.

The implementation follows the HPC guides: bucketing is done with a single
``argsort`` over flattened cell ids (vectorized), and queries slice the sorted
arrays via ``searchsorted`` — no per-point Python loops at build time.

Two query tiers share that layout:

- the scalar tier (:meth:`GridIndex.query_radius` / ``query_point``) probes
  the cell table one cell at a time — right for a handful of ad-hoc disks;
- the batch tier (:meth:`GridIndex.query_pairs`, which also powers
  ``count_within`` and ``pairs_within``) answers *many* disks in fused
  array passes over the CSR layout (``_order`` + sorted ``_cell_ids``):
  window enumeration, candidate expansion and the distance predicate are
  each one vectorized operation over every query at once, chunked so peak
  memory stays bounded regardless of query count.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.utils import check_positions
from repro.utils.validation import edges_from_keys

#: Upper bound on the number of candidate (query, point) pairs a single
#: fused batch pass materializes; larger workloads are split into query
#: chunks. 2^21 pairs ≈ 50 MB of transient arrays at float64.
BATCH_PAIR_CHUNK = 1 << 21

#: ``method="auto"`` of both :func:`repro.interference.node_interference`
#: and :func:`repro.model.unit_disk_graph` switches from the vectorized
#: O(n^2) pass to the fused grid tier above this node count. Calibrated on
#: constant-density instances (Linux/x86-64, numpy 2.x): the interference
#: kernels tie at n ~ 128 and batch wins 2x at n = 256, 64x at n = 4096;
#: UDG construction ties at n ~ 128-256 and the grid wins 5-10x at
#: n = 1024 (docs/PERFORMANCE.md has both tables).
AUTO_BATCH_MIN_N = 192

#: Grid builders clamp their cell size so each axis has at most
#: ``GRID_CELLS_PER_AXIS_SCALE * sqrt(n)`` cells (~16n cells total): a
#: tiny cell over a huge extent (exponential chains) otherwise makes a
#: span-scale query enumerate astronomically many cells, and the cell
#: coordinates themselves overflow int64.
GRID_CELLS_PER_AXIS_SCALE = 4.0


def clamped_cell_size(cell: float, span: float, n: int) -> float:
    """``cell``, raised so an extent ``span`` wide holding ``n`` points has at
    most ``GRID_CELLS_PER_AXIS_SCALE * sqrt(n)`` cells per axis."""
    return max(cell, span / max(GRID_CELLS_PER_AXIS_SCALE * math.sqrt(n), 1.0))


@runtime_checkable
class BatchQuery(Protocol):
    """The batch-query seam shared by every fused consumer.

    Anything exposing this surface — :class:`GridIndex`, a shard worker's
    ghost-augmented sub-index, an alternative index structure — can power
    :func:`repro.interference.batch.batch_covered_counts` and the serve
    layer's fused interference lane identically. The contract is the
    batch tier's: ``positions`` is the indexed ``(n, 2)`` float64 array,
    ``query_pairs``/``count_within`` answer many inclusive disk queries
    at once with the ``hypot(dx, dy) <= r`` predicate, bit-identical to
    per-row scalar queries.
    """

    positions: np.ndarray

    def __len__(self) -> int: ...

    def query_pairs(self, centers, radii) -> tuple[np.ndarray, np.ndarray]: ...

    def count_within(self, centers, radii) -> np.ndarray: ...


class GridIndex:
    """Static uniform-grid index over a 2-D point set.

    Parameters
    ----------
    positions:
        ``(n, 2)`` point array.
    cell_size:
        Edge length of grid cells. A good default is the typical query
        radius (e.g. the UDG unit range): each query then touches at most
        nine cells.
    """

    def __init__(self, positions, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.positions = check_positions(positions)
        self.cell_size = float(cell_size)
        n = self.positions.shape[0]
        if n == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._cell_ids = np.empty(0, dtype=np.int64)
            self._starts = {}
            self._origin = np.zeros(2)
            self._ncols = 1
            self._max_cx = -1
            self._max_cy = -1
            self._dense = False
            return
        self._origin = self.positions.min(axis=0)
        cells = np.floor((self.positions - self._origin) / self.cell_size)
        top_x, top_y = cells[:, 0].max(), cells[:, 1].max()
        if (top_x + 2.0) * (top_y + 2.0) >= 2.0**62:
            raise ValueError("cell_size too small: cell ids overflow int64")
        cells = cells.astype(np.int64)
        # occupied extent: queries are clamped to it, both because cells
        # outside it are empty by construction and because unclamped flat
        # ids alias across rows (cx == ncols wraps to column 0 of cy + 1),
        # which used to make wide queries scan cells twice and return
        # duplicate indices
        self._max_cx = int(top_x)
        self._max_cy = int(top_y)
        self._ncols = self._max_cx + 2
        flat = cells[:, 1] * self._ncols + cells[:, 0]
        self._order = np.argsort(flat, kind="stable")
        self._cell_ids = flat[self._order]
        # map flat cell id -> slice into _order
        uniq, starts = np.unique(self._cell_ids, return_index=True)
        ends = np.append(starts[1:], len(self._cell_ids))
        self._starts = {
            int(c): (int(s), int(e)) for c, s, e in zip(uniq, starts, ends)
        }
        self._dense = None

    def __len__(self) -> int:
        return self.positions.shape[0]

    def _cells_overlapping(self, center: np.ndarray, radius: float):
        lo = np.floor((center - radius - self._origin) / self.cell_size)
        hi = np.floor((center + radius - self._origin) / self.cell_size)
        # clamp to the occupied extent: beyond it there is nothing to find,
        # and flat ids computed from out-of-range cx alias into other rows.
        # Clamping in float, before the cast, keeps far disks from
        # overflowing it.
        top = (self._max_cx, self._max_cy)
        cx0, cy0 = np.clip(lo, 0, np.add(top, 1)).astype(np.int64).tolist()
        cx1, cy1 = np.clip(hi, -1, top).astype(np.int64).tolist()
        for cy in range(cy0, cy1 + 1):
            base = cy * self._ncols
            for cx in range(cx0, cx1 + 1):
                yield base + cx

    def query_radius(self, center, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center`` (inclusive)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        obs.count("gridindex.queries")
        center = np.asarray(center, dtype=np.float64)
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        candidate_blocks = []
        for cell in self._cells_overlapping(center, radius):
            span = self._starts.get(cell)
            if span is not None:
                candidate_blocks.append(self._order[span[0] : span[1]])
        if not candidate_blocks:
            return np.empty(0, dtype=np.int64)
        cand = np.concatenate(candidate_blocks)
        diff = self.positions[cand] - center
        # hypot, not squared distance: d*d underflows to 0 for sub-1e-154
        # gaps (normalized exponential chains reach denormals), which would
        # classify points as inside disks that exclude them. hypot keeps the
        # predicate bitwise-identical to the brute-force kernels.
        d = np.hypot(diff[:, 0], diff[:, 1])
        hits = cand[d <= radius]
        hits.sort()
        return hits

    def query_point(self, index: int, radius: float) -> np.ndarray:
        """Indices within ``radius`` of point ``index`` (``index`` excluded)."""
        hits = self.query_radius(self.positions[index], radius)
        return hits[hits != index]

    # -- fused batch queries ------------------------------------------------

    def _query_windows(self, centers: np.ndarray, radii: np.ndarray):
        """Clamped per-query cell-window bounds (four int64 arrays).

        A window whose ``lo > hi`` on either axis is empty (the disk lies
        entirely outside the occupied extent).
        """
        span = radii[:, None]
        lo = np.floor((centers - span - self._origin) / self.cell_size)
        hi = np.floor((centers + span - self._origin) / self.cell_size)
        # clamp in float, before the int64 cast, so a far or huge disk
        # cannot overflow it; clamped empty windows stay empty
        lo_x = np.clip(lo[:, 0], 0, self._max_cx + 1).astype(np.int64)
        lo_y = np.clip(lo[:, 1], 0, self._max_cy + 1).astype(np.int64)
        hi_x = np.clip(hi[:, 0], -1, self._max_cx).astype(np.int64)
        hi_y = np.clip(hi[:, 1], -1, self._max_cy).astype(np.int64)
        return lo_x, hi_x, lo_y, hi_y

    def _expand_cells(self, qids, lo_x, hi_x, lo_y, hi_y):
        """Per-(query, cell) pairs for the given windows: ``(qid, flat_id)``.

        Windows are assumed clamped; empty windows contribute nothing.
        Within one query all yielded cells are distinct (no aliasing, by
        the clamp), so no candidate is ever scanned twice.
        """
        wx = np.maximum(hi_x - lo_x + 1, 0)
        wy = np.maximum(hi_y - lo_y + 1, 0)
        area = wx * wy
        total = int(area.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        reps = np.repeat(np.arange(area.size), area)
        k = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(area) - area, area
        )
        wyq = wy[reps]
        cy = lo_y[reps] + k % wyq
        cx = lo_x[reps] + k // wyq
        return qids[reps], cy * self._ncols + cx

    def _dense_spans(self):
        """Dense ``(start, count)`` per-flat-cell lookup tables, or ``None``.

        Turns the two binary searches per probed cell into O(1) fancy
        indexing. Built lazily on the first batch query, and only when the
        flat cell space is small relative to n (the interference kernels'
        cell-count clamp guarantees ~16n cells; a caller-chosen tiny
        ``cell_size`` could make the space huge, in which case the batch
        tier keeps using ``searchsorted``).
        """
        if self._dense is False:
            return None
        if self._dense is None:
            ncells = self._ncols * (self._max_cy + 2)
            if ncells > max(64 * len(self), 1 << 20):
                self._dense = False
                return None
            cnt = np.bincount(self._cell_ids, minlength=ncells)
            self._dense = (np.cumsum(cnt) - cnt, cnt)
        return self._dense

    def _cell_candidates(self, qids, cells):
        """Expand (query, cell) pairs into (query, point) candidate pairs:
        dense start/count lookup when available, else two vectorized binary
        searches over the sorted cell ids."""
        dense = self._dense_spans()
        if dense is not None:
            s = dense[0][cells]
            cnt = dense[1][cells]
        else:
            s = np.searchsorted(self._cell_ids, cells, side="left")
            e = np.searchsorted(self._cell_ids, cells, side="right")
            cnt = e - s
        nz = cnt > 0
        if not nz.all():
            s, cnt, qids = s[nz], cnt[nz], qids[nz]
        total = int(cnt.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        qq = np.repeat(qids, cnt)
        t = np.arange(total, dtype=np.int64) + np.repeat(
            s - (np.cumsum(cnt) - cnt), cnt
        )
        return qq, self._order[t]

    def _batch_hits(self, centers: np.ndarray, radii: np.ndarray):
        """Yield ``(query_ids, point_ids)`` hit pairs for many disk queries.

        One fused pass per chunk: window enumeration, CSR candidate
        expansion, and a single ``hypot`` predicate over every candidate
        pair at once. Chunks are cut so no pass materializes more than
        ~:data:`BATCH_PAIR_CHUNK` candidate pairs.
        """
        m = centers.shape[0]
        n = len(self)
        if m == 0 or n == 0:
            return
        px = self.positions[:, 0]
        py = self.positions[:, 1]
        lo_x, hi_x, lo_y, hi_y = self._query_windows(centers, radii)
        area = np.maximum(hi_x - lo_x + 1, 0) * np.maximum(hi_y - lo_y + 1, 0)
        # a window enumerating more cells than there are points (tiny
        # cell_size, huge radius) is pure overhead — and can be
        # astronomically large; scan those queries against all points
        # directly instead, chunked like everything else
        big = area > max(16, n)
        if big.any():
            bq = np.flatnonzero(big)
            per = max(1, BATCH_PAIR_CHUNK // n)
            for lo in range(0, bq.size, per):
                ids = bq[lo : lo + per]
                d = np.hypot(
                    px[None, :] - centers[ids, 0, None],
                    py[None, :] - centers[ids, 1, None],
                )
                qq, cand = np.nonzero(d <= radii[ids, None])
                yield ids[qq], cand
            # exclude from the window pass below
            hi_x = np.where(big, lo_x - 1, hi_x)
            area = np.where(big, 0, area)
        # candidate-volume estimate per query: window area x mean points
        # per occupied cell (exact enough to bound memory; the true pair
        # count is computed per chunk anyway)
        per_cell = max(1.0, n / max(len(self._starts), 1))
        weight = np.cumsum(area * per_cell + 1.0)
        start = 0
        while start < m:
            stop = int(
                np.searchsorted(weight, weight[start] + BATCH_PAIR_CHUNK)
            )
            stop = max(stop, start + 1)
            sl = slice(start, stop)
            qids, cells = self._expand_cells(
                np.arange(start, stop, dtype=np.int64),
                lo_x[sl], hi_x[sl], lo_y[sl], hi_y[sl],
            )
            qq, cand = self._cell_candidates(qids, cells)
            if qq.size:
                d = np.hypot(px[cand] - centers[qq, 0], py[cand] - centers[qq, 1])
                keep = d <= radii[qq]
                yield qq[keep], cand[keep]
            start = stop

    def query_pairs(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """All ``(query, point)`` hit pairs for many disk queries at once.

        ``centers`` is ``(m, 2)``; ``radii`` is a scalar or length ``m``
        (inclusive, same predicate as :meth:`query_radius`). Returns two
        int64 arrays ``(query_ids, point_ids)`` sorted lexicographically by
        query then point — the fused equivalent of calling
        :meth:`query_radius` per row.
        """
        centers = check_positions(centers, name="centers")
        radii = np.broadcast_to(
            np.asarray(radii, dtype=np.float64), (centers.shape[0],)
        )
        if np.any(radii < 0):
            raise ValueError("radius must be non-negative")
        obs.count("gridindex.batch_queries", centers.shape[0])
        qs, ps = [], []
        for qq, hits in self._batch_hits(centers, radii):
            qs.append(qq)
            ps.append(hits)
        if not qs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        qq = np.concatenate(qs)
        hits = np.concatenate(ps)
        order = np.lexsort((hits, qq))
        return qq[order], hits[order]

    def pairs_within(self, radius: float) -> np.ndarray:
        """All unordered pairs with distance <= ``radius``; ``(m, 2)`` int64.

        Equivalent to :func:`repro.geometry.pairwise_within` but near-linear
        for bounded-density instances — and, unlike the scalar tier, one
        fused batch pass instead of a per-point Python loop.
        """
        n = len(self)
        if n == 0:
            return np.empty((0, 2), dtype=np.int64)
        radii = np.full(n, float(radius))
        # one int64 edge key per pair (repro.utils.validation.edge_keys): a 1-D sort
        # instead of a two-key lexsort
        keys = []
        for qq, hits in self._batch_hits(self.positions, radii):
            keep = hits > qq
            keys.append(qq[keep] * n + hits[keep])
        if not keys:
            return np.empty((0, 2), dtype=np.int64)
        return edges_from_keys(np.sort(np.concatenate(keys)), n)

    def count_within(self, centers, radii) -> np.ndarray:
        """For each ``(center, radius)`` pair, count indexed points inside.

        ``centers`` is ``(m, 2)``; ``radii`` length ``m``. Returns int64
        counts (points at exactly the radius are counted). One fused batch
        pass over the CSR layout, not a per-center loop.
        """
        centers = check_positions(centers, name="centers")
        radii = np.broadcast_to(
            np.asarray(radii, dtype=np.float64), (centers.shape[0],)
        )
        if radii.size and np.any(radii < 0):
            raise ValueError("radius must be non-negative")
        out = np.zeros(centers.shape[0], dtype=np.int64)
        for qq, _hits in self._batch_hits(centers, radii):
            out += np.bincount(qq, minlength=out.size)
        return out
