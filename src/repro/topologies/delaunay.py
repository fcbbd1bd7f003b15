"""Delaunay triangulation intersected with the unit disk graph.

Planar-structure baseline from first-generation topology control [10, 14].
Degenerate (collinear) inputs — e.g. highway instances — have no 2-D
triangulation; there the Delaunay graph of points on a line is exactly the
path through the sorted order, which we build directly.

The candidate edges are int64 keys (:func:`repro.utils.validation.edge_keys`)
built from the triangle sides or the path at once; one sort drops the
repeats (each inner side bounds two triangles) and one ``np.isin`` against
the UDG's sorted ``_keys`` keeps the unit-range ones.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, QhullError

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.utils.validation import edges_from_keys, sorted_unique


def _collinear(pos: np.ndarray) -> bool:
    if pos.shape[0] <= 2:
        return True
    centered = pos - pos.mean(axis=0)
    return bool(np.linalg.matrix_rank(centered, tol=1e-12) < 2)


def _side_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Edge keys of the node pairs ``(a[i], b[i])``, in either orientation."""
    return np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)


def _path_keys(pos: np.ndarray) -> np.ndarray:
    """1-D Delaunay: the path through the sorted order (ties in x by y)."""
    order = np.lexsort((pos[:, 1], pos[:, 0]))
    return _side_keys(order[:-1], order[1:], pos.shape[0])


@register("delaunay")
def delaunay_topology(udg: Topology) -> Topology:
    """Delaunay edges (the sorted path on collinear or Qhull-rejected
    inputs) that are also UDG edges: sorted-unique candidate keys filtered
    by ``np.isin`` against ``udg._keys``."""
    pos, n = udg.positions, udg.n
    if n <= 1:
        return Topology(pos, ())
    if _collinear(pos):
        keys = _path_keys(pos)
    else:
        try:
            tri = Delaunay(pos)
        except QhullError:
            keys = _path_keys(pos)
        else:
            s = tri.simplices
            keys = _side_keys(s, np.roll(s, -1, axis=1), n).ravel()
    keys = sorted_unique(keys)
    return Topology(pos, edges_from_keys(keys[np.isin(keys, udg._keys)], n))
