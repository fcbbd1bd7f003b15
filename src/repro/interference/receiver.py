"""Receiver-centric interference (Definitions 3.1 and 3.2).

Given a topology ``G' = (V, E')`` with derived radii ``r_u`` (distance to
the farthest neighbour), the interference of node ``v`` is::

    I(v) = |{ u in V \\ {v} : v in D(u, r_u) }|

i.e. the number of *other* nodes whose transmission disk covers ``v`` —
"by how many other nodes can v be disturbed". The graph interference is
``I(G') = max_v I(v)``.

Floating point: coverage tests use ``d(u, v) <= r_u * (1 + rtol) + atol``
with tiny default tolerances so that exact geometric constructions (e.g.
the exponential chain, where a radius equals a node distance exactly) are
classified consistently.

Kernels follow the HPC guides: ``method="brute"`` is a blocked, fully
vectorized O(n^2) pass; ``method="batch"`` (:mod:`repro.interference.batch`)
answers every disk query in fused array passes over the grid's CSR
layout — the default above :data:`AUTO_BATCH_MIN_N` nodes;
``node_interference_naive`` is the pure-Python reference used in tests
and performance benchmarks. All kernels share one coverage predicate and
agree bit-for-bit on every instance family (the property suites assert
it), including degenerate ones: a zero-radius node still covers nodes at
distance exactly zero, in every kernel.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.geometry.spatial import AUTO_BATCH_MIN_N, GridIndex, clamped_cell_size
from repro.interference.batch import batch_covered_counts
from repro.model.topology import Topology

#: Default relative tolerance for disk-coverage tests.
RTOL = 1e-9
#: Default absolute tolerance for disk-coverage tests. Zero on purpose: the
#: adversarial instances (normalized exponential chains) have inter-node
#: gaps far below any fixed absolute epsilon, and radii/distances are
#: computed by the same hypot kernel so exact-equality cases match bitwise.
ATOL = 0.0

#: Row/column block edge for the O(n^2) kernels. Blocking BOTH axes keeps
#: the peak transient at ~3 float64 blocks (~25 MB) regardless of n; the
#: old row-only chunking materialized a ``(chunk, n, 2)`` diff — ~1.6 GB
#: per chunk at n = 10^5, defeating the chunking's purpose.
_CHUNK = 1024

#: Fall back to the brute kernel when the average query disk's bounding
#: box covers more than this fraction of the instance extent — the grid
#: cannot prune such workloads and only adds per-cell overhead on top of
#: the same point scans.
GRID_COVERAGE_FALLBACK = 0.25


def node_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Per-node receiver-centric interference vector ``I(v)`` (int64).

    ``method`` is ``"brute"`` (vectorized O(n^2), blocked), ``"batch"``
    (fused array-at-a-time queries over the grid CSR layout, optional
    numba backend) or ``"auto"`` (brute below ``AUTO_BATCH_MIN_N`` nodes,
    batch above; the batch kernel degrades gracefully to brute on
    instances the grid cannot prune).
    """
    if method not in ("auto", "brute", "batch"):
        raise ValueError(f"unknown method {method!r}")
    n = topology.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if method == "auto":
        method = "batch" if n > AUTO_BATCH_MIN_N else "brute"
    with obs.span("interference.node", n=n, method=method):
        obs.count(f"interference.method.{method}")
        if method == "brute":
            return _interference_brute(topology, rtol, atol)
        return _interference_batch(topology, rtol, atol)


def _interference_brute(topology: Topology, rtol: float, atol: float) -> np.ndarray:
    pos = topology.positions
    r_eff = topology.radii * (1.0 + rtol) + atol
    n = pos.shape[0]
    x = np.ascontiguousarray(pos[:, 0])
    y = np.ascontiguousarray(pos[:, 1])
    counts = np.zeros(n, dtype=np.int64)
    for rs in range(0, n, _CHUNK):
        re = min(rs + _CHUNK, n)
        for cs in range(0, n, _CHUNK):
            ce = min(cs + _CHUNK, n)
            # rows: potential interferers u; cols: victims v. Per-axis
            # deltas (never a 3-D diff) keep the transient at block size.
            dx = x[rs:re, None] - x[None, cs:ce]
            dy = y[rs:re, None] - y[None, cs:ce]
            d = np.hypot(dx, dy)
            covered = d <= r_eff[rs:re, None]
            if rs == cs:
                # never count self-interference
                idx = np.arange(re - rs)
                covered[idx, idx] = False
            counts[cs:ce] += covered.sum(axis=0)
    return counts


def _grid_cell_size(
    pos: np.ndarray,
    radii: np.ndarray,
    r_eff: np.ndarray,
    n: int,
    *,
    counter_prefix: str = "interference.batch",
) -> float | None:
    """Cell size for the grid-backed kernels, or ``None`` when the grid
    cannot prune the instance and the caller should use brute instead.

    Shared by the batch kernel and the fused multi-instance kernel so both
    make identical fallback choices.
    """
    positive = radii[radii > 0]
    spans = [float(np.ptp(pos[:, 0])), float(np.ptp(pos[:, 1]))]
    span = max(spans)
    if positive.size == 0 or span <= 0.0:
        # no transmitters, or all points coincident: nothing for a grid to
        # prune — the vectorized pass is both correct and cheapest
        obs.count(f"{counter_prefix}.fallback_degenerate")
        return None
    # Median positive radius is a good cell size for homogeneous radii, but
    # degenerates when radii span many orders of magnitude (exponential
    # chains): clamp the grid to ~16n cells in all (both spans, so a 1-D
    # highway keeps fine cells) and a span-scale query stays O(n).
    cell = min(clamped_cell_size(float(np.median(positive)), spans, n), span)
    # If the average query disk's bounding box covers a large fraction of
    # the instance, every query scans nearly all points regardless of cell
    # size; the brute kernel does the same scans vectorized.
    frac = np.ones(n, dtype=np.float64)
    for axis in range(2):
        if spans[axis] > 0.0:
            frac *= np.minimum(2.0 * r_eff / spans[axis], 1.0)
    if float(frac.mean()) > GRID_COVERAGE_FALLBACK:
        obs.count(f"{counter_prefix}.fallback_coverage")
        return None
    return cell


def _interference_batch(topology: Topology, rtol: float, atol: float) -> np.ndarray:
    pos = topology.positions
    radii = topology.radii
    r_eff = radii * (1.0 + rtol) + atol
    n = topology.n
    cell = _grid_cell_size(pos, radii, r_eff, n)
    if cell is None:
        return _interference_brute(topology, rtol, atol)
    index = GridIndex(pos, cell_size=cell)
    return batch_covered_counts(index, r_eff)


def node_interference_naive(
    topology: Topology, *, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """Pure-Python O(n^2) reference implementation (oracle/benchmark)."""
    pos = topology.positions
    radii = topology.radii
    n = topology.n
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        c = 0
        for u in range(n):
            if u == v:
                continue
            d = math.hypot(pos[u, 0] - pos[v, 0], pos[u, 1] - pos[v, 1])
            if d <= radii[u] * (1.0 + rtol) + atol:
                c += 1
        counts[v] = c
    return counts


def graph_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> int:
    """``I(G') = max_v I(v)`` (Definition 3.2); 0 for the empty network.

    All options are keyword-only and validated here (a typo such as
    ``rtoll=`` raises ``TypeError`` instead of being silently swallowed
    by a ``**kwargs`` passthrough).
    """
    vec = node_interference(topology, method=method, rtol=rtol, atol=atol)
    return int(vec.max()) if vec.size else 0


def average_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> float:
    """Mean of ``I(v)`` over all nodes — the average-case companion measure.

    The paper optimizes the maximum (Definition 3.2); the literature also
    studies the average, which by the double-counting identity equals the
    average *footprint* (nodes covered per disk). 0.0 for the empty
    network. Options are keyword-only and validated (see
    :func:`graph_interference`).
    """
    vec = node_interference(topology, method=method, rtol=rtol, atol=atol)
    return float(vec.mean()) if vec.size else 0.0


def coverage_matrix(topology: Topology) -> np.ndarray:
    """Dense boolean ``(n, n)`` matrix: ``covers[u, v]`` iff ``u``'s disk
    covers ``v`` (self excluded), under the default tolerances every
    kernel counts with.

    Column sums are ``I(v)``. O(n^2) memory, so it serves the packet
    simulators, which index single pairs and sum sender rows per slot.
    """
    pos = topology.positions
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    covers = d <= (topology.radii * (1.0 + RTOL) + ATOL)[:, None]
    np.fill_diagonal(covers, False)
    return covers


def coverage_counts(topology: Topology, *, rtol: float = RTOL, atol: float = ATOL):
    """Pairs ``(interferers, covered)``: for each node, how many others it
    is disturbed by (``I(v)``) and how many others its own disk covers.

    The second vector is the node's "footprint" — useful for diagnosing
    which nodes dominate interference (hubs in the highway constructions).
    """
    pos = topology.positions
    r_eff = topology.radii * (1.0 + rtol) + atol
    n = topology.n
    x = np.ascontiguousarray(pos[:, 0])
    y = np.ascontiguousarray(pos[:, 1])
    interferers = np.zeros(n, dtype=np.int64)
    covered = np.zeros(n, dtype=np.int64)
    for rs in range(0, n, _CHUNK):
        re = min(rs + _CHUNK, n)
        for cs in range(0, n, _CHUNK):
            ce = min(cs + _CHUNK, n)
            dx = x[rs:re, None] - x[None, cs:ce]
            dy = y[rs:re, None] - y[None, cs:ce]
            d = np.hypot(dx, dy)
            cov = d <= r_eff[rs:re, None]
            if rs == cs:
                idx = np.arange(re - rs)
                cov[idx, idx] = False
            interferers[cs:ce] += cov.sum(axis=0)
            covered[rs:re] += cov.sum(axis=1)
    return interferers, covered
