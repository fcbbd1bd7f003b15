"""Uniform grid spatial index for radius queries.

The index buckets points into square cells of a fixed ``cell_size``. A radius
query then only inspects the cells overlapping the query disk instead of all
n points, which turns UDG construction and interference counting into
near-linear work for bounded-density instances.

Bucketing is one ``argsort`` over flat cell ids (``row * ncols + column``),
giving a CSR layout: ``_order`` lists the points cell by cell, and
``_cell_ids`` is sorted. Rows run along the axis with more cells. The cells
``lo..hi`` of one grid row are consecutive flat ids, so their points are one
contiguous slice of ``_order``: every query window is a few **row spans**
``(start, end)``, read from a dense start table (or two binary searches of
``_cell_ids`` when the cell space is too sparse for one).

Every query (:meth:`GridIndex.query_pairs`, ``count_within`` and
``pairs_within``, the one-disk ``query_radius``/``query_point`` wrappers,
plus the interference kernels and the stream bulk path) runs through one
window computation, :meth:`GridIndex._row_windows`, and one enumerator,
:func:`_row_span_pairs`: row expansion, candidate expansion and the
distance predicate are each one vectorized operation over every query at
once, chunked on the exact candidate count so peak memory stays bounded
regardless of query count. Coordinates are read from cell-sorted copies
(``_xs``/``_ys``), so queries taken in CSR order touch memory in order.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.utils import check_positions
from repro.utils.validation import check_key_span, edges_from_keys

#: Upper bound on the number of candidate (query, point) pairs a single
#: fused batch pass materializes; larger workloads are split into chunks
#: on the exact candidate count. 2^16 pairs keep each int64 transient at
#: 0.5 MB, inside L2: on a 2-vCPU Xeon this was ~15% faster than 2^21 at
#: n = 2e4 (sweep 2^13..2^21 in docs/PERFORMANCE.md).
BATCH_PAIR_CHUNK = 1 << 16

#: ``method="auto"`` of both :func:`repro.interference.node_interference`
#: and :func:`repro.model.unit_disk_graph` switches from the vectorized
#: O(n^2) pass to the fused grid tier above this node count. Calibrated on
#: constant-density instances (Linux/x86-64, numpy 2.x): the interference
#: kernels tie at n ~ 128 and batch wins 2x at n = 256, 64x at n = 4096;
#: UDG construction ties at n ~ 128-256 and the grid wins 5-10x at
#: n = 1024 (docs/PERFORMANCE.md has both tables).
AUTO_BATCH_MIN_N = 192

#: Grid builders clamp their cell size so the grid has at most
#: ``GRID_CELLS_PER_POINT * n`` cells in total: a tiny cell over a huge
#: extent (exponential chains) otherwise makes a span-scale query
#: enumerate astronomically many cells, and the cell coordinates
#: themselves overflow int64.
GRID_CELLS_PER_POINT = 16.0


def clamped_cell_size(cell: float, span, n: int) -> float:
    """``cell``, raised so a grid over an extent holding ``n`` points has at
    most ``GRID_CELLS_PER_POINT * n`` cells.

    ``span`` is the extent's ``(x, y)`` spans, or one scalar for a square
    extent. An axis narrower than a cell counts as one cell, so a 1-D
    extent (a highway) may have all ``16n`` cells along its length.
    """
    wide, narrow = (max(span), min(span)) if np.ndim(span) else (span, span)
    if wide <= 0:
        return cell
    cap = max(GRID_CELLS_PER_POINT * n, 1.0)
    # == wide / sqrt(cap) for a square extent
    low = wide / math.sqrt(cap) * math.sqrt(max(narrow, wide / cap) / wide)
    return max(cell, float(low))


#: Relative half-width of the band around r² inside which
#: :class:`DiskCover` defers to ``np.hypot``: squared distances below
#: ``r²(1 - COVER_BAND)`` are inside, above ``r²(1 + COVER_BAND)``
#: outside. 2^-40 is ~2^12 times the rounding error of ``dx² + dy²`` and
#: of hypot, so no pair outside the band can round across the boundary.
COVER_BAND = 2.0**-40

#: The thresholds are taken from radii clamped into [2^-450, 2^450], so
#: r² lies in [2^-900, 2^900], where squared distances near it neither
#: underflow nor overflow. A disk below the range (r = 0, tiny, negative)
#: has nothing inside by ``s`` (``lo = -inf``); one above it has nothing
#: outside by ``s`` (``hi = inf``): their other pairs go to ``np.hypot``.
#: A NaN radius makes both thresholds NaN and sends every pair there.
_COVER_R_MIN = 2.0**-450
_COVER_R_MAX = 2.0**450


class DiskCover:
    """The coverage predicate of every vectorized kernel: exactly
    ``np.hypot(dx, dy) <= r``, decided from ``dx² + dy²`` outside a thin
    band around r².

    ``radii`` (1-D) are the disks' radii; the per-disk thresholds
    ``lo = r²(1 - 2⁻⁴⁰)`` and ``hi = r²(1 + 2⁻⁴⁰)`` are computed once, at
    construction. ``cover(dx, dy, q)`` then tests pairs against disks
    ``q``: ``s = dx² + dy² <= lo[q]`` is inside, ``s > hi[q]`` outside,
    and only a pair in between (or with a NaN ``s``) calls ``np.hypot``;
    disks outside the safe radius range have one-sided thresholds
    (:data:`_COVER_R_MIN`). DESIGN.md §5 holds the
    error argument: the result is bit-identical to the literal hypot
    predicate (``node_interference_naive`` keeps it), at the cost of a
    squared comparison. Overflow and underflow are expected and silenced.
    """

    def __init__(self, radii):
        r = self.radii = np.asarray(radii, dtype=np.float64)
        r2 = np.minimum(np.maximum(r, _COVER_R_MIN), _COVER_R_MAX)
        r2 *= r2
        self.lo = r2 * (1.0 - COVER_BAND)
        self.hi = r2 * (1.0 + COVER_BAND)
        self.lo[r < _COVER_R_MIN] = -np.inf
        self.hi[r > _COVER_R_MAX] = np.inf

    def __call__(self, dx, dy, q):
        """Boolean array ``np.hypot(dx, dy) <= radii[q]``, bit for bit.

        ``q`` indexes the disks, and ``radii[q]`` broadcasts against
        ``dx`` and ``dy``: a 1-D run of pairs with one disk each, a
        ``(rows, n)`` block with one disk per row (``q`` an index column
        or ``(row_slice, None)``), or one disk for every pair.
        """
        with np.errstate(all="ignore"):
            s = dx * dx + dy * dy
            keep = s <= self.lo[q]
            decided = s > self.hi[q]
            decided |= keep
            if np.count_nonzero(decided) < decided.size:
                # the band: pairs whose answer depends on hypot's rounding
                i = np.nonzero(~decided)
                shape = keep.shape
                keep[i] = np.hypot(
                    np.broadcast_to(dx, shape)[i], np.broadcast_to(dy, shape)[i]
                ) <= np.broadcast_to(self.radii[q], shape)[i]
        return keep


def _radii(radii, m: int) -> np.ndarray:
    """``radii`` as a length-``m`` float64 array; negative or NaN raise."""
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (m,))
    if not np.all(radii >= 0):
        raise ValueError("radius must be non-negative (and not NaN)")
    return radii


def _start_table(cell_ids: np.ndarray, ncells: int):
    """Dense CSR start table over the sorted flat ``cell_ids``, or ``None``.

    ``table[c]`` is the CSR position of the first point in cell ``c`` or
    later, so cells ``a..b-1`` hold CSR positions ``table[a]:table[b]``.
    ``None`` when the cell space is large relative to the point count (a
    caller-chosen tiny ``cell_size``); lookups then binary-search
    ``cell_ids`` instead.
    """
    if ncells > max(64 * cell_ids.size, 1 << 20):
        return None
    table = np.zeros(ncells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_ids, minlength=ncells), out=table[1:])
    return table


def _row_bounds(cell_ids, table, lo, hi):
    """CSR ``(start, end)`` of the flat cell ranges ``lo..hi-1``."""
    if table is None:
        return np.searchsorted(cell_ids, lo), np.searchsorted(cell_ids, hi)
    return table[lo], table[hi]


def _row_span_pairs(first, width, rows, stride, cell_ids, table):
    """Yield ``(q, t)`` candidate chunks of many row-span windows.

    Query ``q``'s window is ``rows[q]`` runs of ``width[q]`` consecutive
    flat cells, the ``k``-th starting at ``first[q] + k * stride[q]``
    (``stride`` may be a scalar). Its candidates are the CSR positions
    ``t`` of every point in those cells. ``cell_ids`` and ``table`` are the
    layout's sorted flat ids and its :func:`_start_table` (or ``None``).

    Chunks hold at most ``BATCH_PAIR_CHUNK`` pairs (or one row), cut on the
    exact candidate count; one query's candidates may straddle chunks.
    """
    chunk = BATCH_PAIR_CHUNK
    stride = np.broadcast_to(stride, rows.shape)
    row_end = np.cumsum(rows)
    q0 = 0
    while q0 < rows.size:
        # the queries of about `chunk` row spans
        q1 = int(np.searchsorted(row_end, row_end[q0] - rows[q0] + chunk, "right"))
        q1 = max(q1, q0 + 1)
        r = rows[q0:q1]
        q = np.repeat(np.arange(q0, q1), r)
        k = np.arange(q.size) - np.repeat(np.cumsum(r) - r, r)
        lo = first[q] + k * stride[q]
        s, e = _row_bounds(cell_ids, table, lo, lo + width[q])
        q0 = q1
        cnt = e - s
        nz = cnt > 0
        q, s, cnt = q[nz], s[nz], cnt[nz]
        end = np.cumsum(cnt)
        j = 0
        while j < cnt.size:
            done = end[j] - cnt[j]
            j1 = max(int(np.searchsorted(end, done + chunk, "right")), j + 1)
            c = cnt[j:j1]
            # t runs through each row's [s, s + c) in turn
            shift = np.repeat(s[j:j1] - (end[j:j1] - c - done), c)
            yield np.repeat(q[j:j1], c), np.arange(shift.size) + shift
            j = j1


@runtime_checkable
class BatchQuery(Protocol):
    """The batch-query seam shared by every fused consumer.

    Anything exposing this surface — :class:`GridIndex`, a shard worker's
    ghost-augmented sub-index, an alternative index structure — can power
    :func:`repro.interference.batch.batch_covered_counts` and the serve
    layer's fused interference lane identically. The contract is the
    batch tier's: ``positions`` is the indexed ``(n, 2)`` float64 array,
    ``query_pairs``/``count_within`` answer many inclusive disk queries
    at once with the ``hypot(dx, dy) <= r`` predicate (:class:`DiskCover`
    for :class:`GridIndex`), bit-identical to the brute-force kernels.
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
        Edge length of grid cells (positive; ``inf`` puts every point in
        one cell). A good default is the typical query radius (e.g. the UDG
        unit range): each query then touches at most three rows of three
        cells.
    """

    def __init__(self, positions, cell_size: float):
        cell_size = float(cell_size)
        if not cell_size > 0:
            raise ValueError("cell_size must be positive (and not NaN)")
        self.positions = check_positions(positions)
        self.cell_size = cell_size
        # a finite stand-in for an infinite cell: still one cell, and an
        # infinite radius over it stays infinite instead of inf/inf = NaN
        self._cell = min(cell_size, np.finfo(np.float64).max)
        n = self.positions.shape[0]
        # per-column work: numpy's axis-0 reductions over (n, 2) are ~10x
        # slower than two 1-D ones
        cols = [self.positions[:, 0], self.positions[:, 1]]
        origin = [float(c.min()) if n else 0.0 for c in cols]
        cells = [np.floor((c - o) / self._cell) for c, o in zip(cols, origin)]
        top = [float(c.max()) if n else -1.0 for c in cells]
        if (top[0] + 2.0) * (top[1] + 2.0) >= 2.0**62:
            raise ValueError("cell_size too small: cell ids overflow int64")
        # rows run along the axis with more cells: fewer spans per window
        self._flip = top[1] > top[0]
        if self._flip:
            origin, cells, top = origin[::-1], cells[::-1], top[::-1]
        # occupied extent: queries are clamped to it, both because cells
        # outside it are empty by construction and because unclamped flat
        # ids alias across rows (cx == ncols wraps to column 0 of cy + 1),
        # which used to make wide queries scan cells twice and return
        # duplicate indices. The spare column keeps a row's end id in-row.
        self._origin = origin
        self._top = (int(top[0]), int(top[1]))
        self._ncols = self._top[0] + 2
        self._ncells = self._ncols * (self._top[1] + 2)
        flat = cells[1].astype(np.int64) * self._ncols + cells[0].astype(np.int64)
        # no query depends on the order within a cell: no stable sort
        self._order = np.argsort(flat)
        self._cell_ids = flat[self._order]
        self._xs = cols[0][self._order]
        self._ys = cols[1][self._order]
        self._dense = None

    def __len__(self) -> int:
        return self.positions.shape[0]

    def _dense_spans(self):
        """The dense :func:`_start_table` (built on first use), or ``None``
        for a sparse cell space."""
        if self._dense is None:
            table = _start_table(self._cell_ids, self._ncells)
            self._dense = False if table is None else table
        return None if self._dense is False else self._dense

    def _row_windows(self, cx, cy, radii):
        """Clamped row-span windows ``(first, width, rows)`` of many disks,
        in the form :func:`_row_span_pairs` takes (stride ``_ncols``).

        A disk outside the occupied extent gets no rows. One whose window
        has more rows than there are points gets a single span over every
        cell instead: scanning all n points is cheaper.
        """
        if self._flip:
            cx, cy = cy, cx
        (ox, oy), (mx, my), cell = self._origin, self._top, self._cell
        # clamp in float, before the int64 cast, so a far or huge disk
        # cannot overflow it; clamped empty windows stay empty (min/max,
        # not np.clip: its wrapper costs more than the work on small sets)
        x0 = np.minimum(np.maximum(np.floor((cx - radii - ox) / cell), 0), mx + 1)
        x1 = np.maximum(np.minimum(np.floor((cx + radii - ox) / cell), mx), -1)
        y0 = np.minimum(np.maximum(np.floor((cy - radii - oy) / cell), 0), my + 1)
        y1 = np.maximum(np.minimum(np.floor((cy + radii - oy) / cell), my), -1)
        width = (x1 - x0 + 1).astype(np.int64)
        rows = np.where(width > 0, np.maximum(y1 - y0 + 1, 0), 0).astype(np.int64)
        first = y0.astype(np.int64) * self._ncols + x0.astype(np.int64)
        big = rows > len(self)
        if big.any():
            first[big], width[big], rows[big] = 0, self._ncells, 1
        return first, width, rows

    def _candidates(self, cx, cy, radii):
        """Yield ``(query_ids, csr_positions)`` chunks: every point in a cell
        each disk's window overlaps, no distance predicate applied. The
        point id of CSR position ``t`` is ``_order[t]``."""
        first, width, rows = self._row_windows(cx, cy, radii)
        return _row_span_pairs(
            first, width, rows, self._ncols, self._cell_ids, self._dense_spans()
        )

    def query_radius(self, center, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center`` (inclusive),
        sorted: one :meth:`query_pairs` disk."""
        center = np.asarray(center, dtype=np.float64).reshape(1, 2)
        return self.query_pairs(center, float(radius))[1]

    def query_point(self, index: int, radius: float) -> np.ndarray:
        """Indices within ``radius`` of point ``index`` (``index`` excluded)."""
        hits = self.query_radius(self.positions[index], radius)
        return hits[hits != index]

    # -- fused batch queries ------------------------------------------------

    def _batch_hits(self, cx, cy, radii):
        """Yield ``(query_ids, csr_positions)`` hit chunks for many disks:
        the :meth:`_candidates` under the ``hypot(dx, dy) <= r`` predicate,
        decided by :class:`DiskCover`.
        """
        if len(self) == 0 or radii.size == 0:
            return
        # hypot's answer, bit for bit, from a squared comparison: a bare
        # d*d <= r*r would round across the boundary near d = r and
        # underflow to 0 for sub-1e-154 gaps (normalized exponential
        # chains reach denormals). DiskCover calls hypot only on the
        # 2^-40 band around r², widened to one side for disks outside
        # [2^-450, 2^450].
        cover = DiskCover(radii)
        for q, t in self._candidates(cx, cy, radii):
            keep = cover(self._xs[t] - cx[q], self._ys[t] - cy[q], q)
            yield q[keep], t[keep]

    def query_pairs(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """All ``(query, point)`` hit pairs for many disk queries at once.

        ``centers`` is ``(m, 2)``; ``radii`` is a scalar or length ``m``
        (inclusive: ``hypot(dx, dy) <= r``; negative or NaN radii raise).
        Returns two int64 arrays ``(query_ids, point_ids)`` sorted
        lexicographically by query then point.
        """
        centers = check_positions(centers, name="centers")
        radii = _radii(radii, centers.shape[0])
        obs.count("gridindex.batch_queries", centers.shape[0])
        qs = [np.empty(0, dtype=np.int64)]
        ps = [np.empty(0, dtype=np.int64)]
        for q, t in self._batch_hits(centers[:, 0], centers[:, 1], radii):
            qs.append(q)
            ps.append(self._order[t])
        # one int64 key per hit pair, sorted in one pass: query-major
        n = len(self)
        check_key_span(centers.shape[0] * n, "query-pair")
        keys = np.concatenate(qs) * np.int64(n) + np.concatenate(ps)
        return np.divmod(np.sort(keys), n)

    def pairs_within(self, radius: float) -> np.ndarray:
        """All unordered pairs with distance <= ``radius``; ``(m, 2)`` int64.

        Equivalent to :func:`repro.geometry.pairwise_within` but near-linear
        for bounded-density instances: one fused batch pass (queries in CSR
        order), not a per-point loop.
        """
        n = len(self)
        radii = _radii(radius, n)
        # one int64 edge key per pair (repro.utils.validation.edge_keys): a
        # 1-D sort instead of a two-key lexsort. Each pair is found from
        # both ends; keep the one whose query comes first in CSR order.
        keys = [np.empty(0, dtype=np.int64)]
        for q, t in self._batch_hits(self._xs, self._ys, radii):
            keep = t > q
            a, b = self._order[q[keep]], self._order[t[keep]]
            keys.append(np.minimum(a, b) * n + np.maximum(a, b))
        return edges_from_keys(np.sort(np.concatenate(keys)), n)

    def count_within(self, centers, radii) -> np.ndarray:
        """For each ``(center, radius)`` pair, count indexed points inside.

        ``centers`` is ``(m, 2)``; ``radii`` length ``m``. Returns int64
        counts (points at exactly the radius are counted). One fused batch
        pass over the CSR layout, not a per-center loop.
        """
        centers = check_positions(centers, name="centers")
        radii = _radii(radii, centers.shape[0])
        out = np.zeros(centers.shape[0], dtype=np.int64)
        for q, _t in self._batch_hits(centers[:, 0], centers[:, 1], radii):
            out += np.bincount(q, minlength=out.size)
        return out
