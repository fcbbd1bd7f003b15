"""Vectorized Euclidean distance kernels.

All kernels operate on ``(n, 2)`` float64 arrays (see
:func:`repro.utils.check_positions`). The quadratic kernels are chunked so
peak memory stays bounded for large ``n``; neighbourhood queries at scale
should go through :class:`repro.geometry.GridIndex` instead.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.geometry.spatial import DiskCover
from repro.utils import check_positions

#: Rows of the pairwise-distance matrix computed per chunk. 2048 rows of
#: float64 against 100k points is ~1.6 GB transient; against the n <= 20k
#: used in experiments it is far smaller.
_CHUNK_ROWS = 2048

#: Elements of one ``(rows, n)`` block of :func:`row_blocks` (128 KiB of
#: float64), so per-edge scans over all nodes add nothing to peak memory.
BLOCK_ELEMS = 1 << 14


def row_blocks(rows: int, n: int) -> list[slice]:
    """Slices of ``range(rows)`` of ``BLOCK_ELEMS // n`` rows (at least one)."""
    step = max(1, BLOCK_ELEMS // max(n, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def distance(p, q) -> float:
    """Euclidean distance between two points."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def distances_from(positions, origin_index: int) -> np.ndarray:
    """Distances from node ``origin_index`` to every node (including itself)."""
    pos = check_positions(positions)
    d = pos - pos[origin_index]
    return np.hypot(d[:, 0], d[:, 1])


def distance_matrix(positions, *, chunk_rows: int = _CHUNK_ROWS) -> np.ndarray:
    """Full ``(n, n)`` pairwise Euclidean distance matrix.

    Computed in row chunks to keep the transient ``(chunk, n, 2)``
    broadcasting buffer small. The diagonal is exactly zero.
    """
    pos = check_positions(positions)
    n = pos.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        diff = pos[start:stop, None, :] - pos[None, :, :]
        np.hypot(diff[..., 0], diff[..., 1], out=out[start:stop])
    np.fill_diagonal(out, 0.0)
    return out


def pairwise_within(positions, radius: float) -> np.ndarray:
    """All unordered pairs ``(i, j)``, ``i < j``, with distance <= ``radius``.

    Brute-force O(n^2) kernel, chunked. Returns an ``(m, 2)`` int64 array.
    For large sparse instances prefer :meth:`GridIndex.pairs_within`.
    """
    pos = check_positions(positions)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = pos.shape[0]
    x, y = pos[:, 0], pos[:, 1]
    cover = _disk_cover(float(radius))
    parts: list[np.ndarray] = []
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        # only columns >= start can hold pairs i < j
        covered = cover(
            x[start:stop, None] - x[None, start:],
            y[start:stop, None] - y[None, start:],
            0,
        )
        ii, jj = np.nonzero(covered)
        keep = ii < jj
        part = np.empty((np.count_nonzero(keep), 2), dtype=np.int64)
        part[:, 0] = ii[keep]
        part[:, 1] = jj[keep]
        if start:
            part += start
        parts.append(part)
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@functools.lru_cache(maxsize=16)
def _disk_cover(radius: float) -> DiskCover:
    """``hypot(dx, dy) <= radius`` as a :class:`DiskCover`, the predicate
    ``GridIndex`` and the interference kernels share: a bare squared
    distance rounds differently at d == radius and underflows for denormal
    gaps. Cached, since callers pass the same few radii (the UDG unit)."""
    return DiskCover([radius])


def bounding_box(positions) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
    pos = check_positions(positions)
    if pos.shape[0] == 0:
        raise ValueError("bounding_box of empty point set")
    mins = pos.min(axis=0)
    maxs = pos.max(axis=0)
    return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])
