"""Fused batch interference kernel — the ``method="batch"`` tier.

Rather than one disk query per Python iteration (where, at n >= 10^4,
the per-query interpreter overhead dominates the arithmetic), this module
answers *all* queries of an instance — or of a whole
micro-batch of instances — through the row-span enumerator of
:mod:`repro.geometry.spatial`: each node's query window is a few
``(start, end)`` runs of the CSR cell layout, queries are walked in CSR
order over cell-sorted coordinates, and the coverage predicate
(:class:`repro.geometry.spatial.DiskCover`) is a few vectorized
operations per chunk of at most ``BATCH_PAIR_CHUNK`` candidate pairs.
:func:`node_interference_many` namespaces the cell ids of many instances
into one layout, so a micro-batch is one enumerator pass.

Equivalence contract: the predicate answers exactly what the literal
``hypot(dx, dy) <= r_u * (1 + rtol) + atol`` of ``node_interference_naive``
answers — ``DiskCover``, which the brute kernel shares, decides from
``dx² + dy²`` and calls ``hypot`` itself only on a 2⁻⁴⁰ band around r² —
so ``batch == brute == naive`` bit-for-bit on every instance family
(asserted by the property suites).

Backends
--------
The default backend is pure numpy (zero new dependencies). When `numba`
is importable, an optional JIT backend replaces the enumerator with one
compiled loop nest over the same row spans (one pair of binary searches
per row) and the literal ``hypot`` test — bit-identical counts.
Selection:

- ``REPRO_BATCH_BACKEND=numpy`` forces the numpy path;
- ``REPRO_BATCH_BACKEND=numba`` requires numba (raises if missing);
- unset/``auto``: numba when importable, else numpy. A numba backend
  that fails to import or compile degrades to numpy and bumps the
  ``interference.batch.numba_fallback`` counter — the zero-dependency
  contract holds either way.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro.geometry.spatial import (
    BatchQuery,
    DiskCover,
    GridIndex,
    _row_span_pairs,
    _start_table,
)

__all__ = [
    "HAVE_NUMBA",
    "active_backend",
    "batch_covered_counts",
    "node_interference_many",
]


def _probe_numba() -> bool:
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401
    except Exception:
        return False
    return True


#: Whether the optional numba backend is importable in this environment.
HAVE_NUMBA = _probe_numba()


def active_backend() -> str:
    """The backend the batch kernel will use: ``"numpy"`` or ``"numba"``.

    Resolution order: ``$REPRO_BATCH_BACKEND`` (``numpy`` / ``numba`` /
    ``auto``), then autodetection.
    """
    forced = os.environ.get("REPRO_BATCH_BACKEND", "auto").lower()
    if forced == "numpy":
        return "numpy"
    if forced == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "REPRO_BATCH_BACKEND=numba but numba is not importable"
            )
        return "numba"
    if forced not in ("", "auto"):
        raise ValueError(
            f"unknown REPRO_BATCH_BACKEND {forced!r}; "
            "use numpy, numba or auto"
        )
    return "numba" if HAVE_NUMBA else "numpy"


def _covered_rows(xs, ys, r_eff, first, width, rows, stride, cell_ids):
    """Covered counts of a CSR layout's own points, in CSR order: the
    numba backend's loop nest (compiled by :func:`_numba_kernel`; plain
    Python here). Query ``q`` walks its row spans, one pair of binary
    searches of ``cell_ids`` per row, never one per cell."""
    counts = np.zeros(xs.shape[0], dtype=np.int64)
    for q in range(xs.shape[0]):
        x = xs[q]
        y = ys[q]
        r = r_eff[q]
        for k in range(rows[q]):
            lo = first[q] + k * stride[q]
            s = np.searchsorted(cell_ids, lo)
            e = np.searchsorted(cell_ids, lo + width[q])
            for t in range(s, e):
                if t != q and np.hypot(xs[t] - x, ys[t] - y) <= r:
                    counts[t] += 1
    return counts


_NUMBA_KERNEL = None


def _numba_kernel():  # pragma: no cover - requires numba installed
    """Compile (once) and return :func:`_covered_rows` under numba."""
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL is None:
        from numba import njit

        _NUMBA_KERNEL = njit(cache=True)(_covered_rows)
    return _NUMBA_KERNEL


def _covered_counts(xs, ys, r_eff, first, width, rows, stride, cell_ids, table):
    """``counts[t] = |{q != t : d(q, t) <= r_eff[q]}|`` over a CSR layout.

    Every array is in CSR order; the windows ``first``/``width``/``rows``/
    ``stride`` and ``cell_ids``/``table`` are as
    :func:`repro.geometry.spatial._row_span_pairs` takes them.
    """
    if active_backend() == "numba":  # pragma: no cover - requires numba
        try:
            return _numba_kernel()(
                xs, ys, r_eff, first, width, rows, stride, cell_ids
            )
        except Exception:
            obs.count("interference.batch.numba_fallback")
    counts = np.zeros(xs.shape[0], dtype=np.int64)
    cover = DiskCover(r_eff)
    for q, t in _row_span_pairs(first, width, rows, stride, cell_ids, table):
        keep = cover(xs[t] - xs[q], ys[t] - ys[q], q)
        keep &= q != t
        counts += np.bincount(t[keep], minlength=counts.size)
    return counts


def _layout_part(index: GridIndex, r_eff: np.ndarray):
    """One index's points in CSR order as :func:`_covered_counts` columns:
    ``xs, ys, r_eff, first, width, rows, stride``."""
    r_sorted = r_eff[index._order]
    windows = index._row_windows(index._xs, index._ys, r_sorted)
    stride = np.full(len(index), index._ncols)
    return (index._xs, index._ys, r_sorted, *windows, stride)


def batch_covered_counts(index: BatchQuery, r_eff: np.ndarray) -> np.ndarray:
    """``counts[v] = |{u != v : d(u, v) <= r_eff[u]}|`` in one fused pass.

    ``index`` is any :class:`repro.geometry.spatial.BatchQuery` holding
    the instance's positions; ``r_eff`` is the per-node effective disk
    radius (tolerances already applied). This is the receiver-centric
    interference vector of the indexed point set. :class:`GridIndex`
    gets the row-span/numba internals; other ``BatchQuery``
    implementations run through their public ``query_pairs``, with
    identical results (the predicate is the contract).
    """
    n = len(index)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    r_eff = np.asarray(r_eff, dtype=np.float64)
    if not isinstance(index, GridIndex):
        qq, hits = index.query_pairs(index.positions, r_eff)
        keep = qq != hits
        counts += np.bincount(hits[keep], minlength=n)
        return counts
    counts[index._order] = _covered_counts(
        *_layout_part(index, r_eff), index._cell_ids, index._dense_spans()
    )
    return counts


def node_interference_many(
    topologies, *, rtol: float | None = None, atol: float | None = None
) -> list[np.ndarray]:
    """Per-node interference vectors for many instances, fused.

    Each instance gets its own grid (own origin, cell size and row
    stride); their flat cell ids and CSR positions are offset into
    disjoint ranges and concatenated into one sorted CSR layout, so a
    whole coalesced batch is one chunked row-span pass and one segmented
    bincount instead of a Python loop over scalar kernel calls. No window
    crosses instances: a window's cells lie in its own instance's range.
    Results are bit-identical to calling
    :func:`repro.interference.receiver.node_interference` per instance
    (any method — the kernels agree bit-for-bit by contract).

    Instances the grid cannot prune (degenerate or high-coverage, the
    same tests the grid kernel applies) are computed with the chunked
    brute kernel instead, still inside this one call.
    """
    from repro.interference import receiver

    if rtol is None:
        rtol = receiver.RTOL
    if atol is None:
        atol = receiver.ATOL
    topologies = list(topologies)
    results: list[np.ndarray | None] = [None] * len(topologies)
    fused: list[tuple[int, float]] = []
    for i, topo in enumerate(topologies):
        if topo.n == 0:
            results[i] = np.empty(0, dtype=np.int64)
            continue
        cell = receiver._grid_cell_size(
            topo.positions,
            topo.radii,
            topo.radii * (1.0 + rtol) + atol,
            topo.n,
            counter_prefix="interference.batch_many",
        )
        if cell is None:
            results[i] = receiver._interference_brute(topo, rtol, atol)
        else:
            fused.append((i, cell))
    if not fused:
        return results  # type: ignore[return-value]

    total_n = sum(topologies[i].n for i, _ in fused)
    with obs.span("interference.node_many", instances=len(fused), n=total_n):
        obs.count("interference.method.batch_many")
        parts, ids, orders = [], [], []
        base = off = 0
        for i, cell in fused:
            topo = topologies[i]
            index = GridIndex(topo.positions, cell_size=cell)
            xs, ys, r_eff, first, width, rows, stride = _layout_part(
                index, topo.radii * (1.0 + rtol) + atol
            )
            parts.append((xs, ys, r_eff, first + base, width, rows, stride))
            ids.append(index._cell_ids + base)
            orders.append(index._order + off)
            base += index._ncells
            off += topo.n
        cell_ids = np.concatenate(ids)
        counts = np.empty(off, dtype=np.int64)
        counts[np.concatenate(orders)] = _covered_counts(
            *(np.concatenate(col) for col in zip(*parts)),
            cell_ids,
            _start_table(cell_ids, base),
        )
        off = 0
        for i, _ in fused:
            results[i] = counts[off : off + topologies[i].n]
            off += topologies[i].n
    return results  # type: ignore[return-value]
