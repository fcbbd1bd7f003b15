"""The one link order of the UDG-subgraph baselines, as arrays.

Canonical edges are totally ordered by ``(weight, lo, hi)``: the length by
default, a link quality for XTC. :func:`repro.graphs.mst.edge_ranks` (the
Euclidean MST's tie-break too) turns that rule into one integer rank per
edge: one unstable argsort of the weights, with ties put back in index
order (O(m log m)). Length ranks are computed once per topology and cached
as ``Topology._ranks``. A :class:`NeighborTable` lists both orientations
of every edge sorted by ``(src, rank)`` (one argsort of the unique key
``src * m + rank``); for lengths that is ``(src, dist, dst)``, each node's
neighbours nearest first with ties to the smaller index — the order kNN,
Yao, CBTC, XTC and LMST read.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.mst import edge_ranks, inverse_permutation
from repro.model.topology import Topology
from repro.utils.validation import check_key_span, edge_keys

#: Witness pairs per block of :meth:`NeighborTable.triangles`, on average
#: (about 15 MB of transient int64 arrays).
PAIR_BLOCK = 1 << 18


def run_heads(group: np.ndarray, k: int) -> np.ndarray:
    """Mask of the first ``k`` entries of every run of equal values."""
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    lengths = np.diff(np.r_[starts, group.size])
    return np.arange(group.size) - np.repeat(starts, lengths) < k


class NeighborTable:
    """Directed neighbour table of ``udg``, sorted by ``(src, rank)``.

    ``rank`` is per canonical edge; ``src``, ``dst`` and ``edge`` (the
    canonical index) are per entry; ``indptr`` holds the CSR row starts and
    ``slot`` the ``(m, 2)`` positions of each edge's ``lo -> hi`` and
    ``hi -> lo`` entries. ``weights`` defaults to the edge lengths, whose
    ranks are the topology's cached ``_ranks``.
    """

    def __init__(self, udg: Topology, weights: np.ndarray | None = None):
        self.udg = udg
        edges, m = udg.edges, udg.n_edges
        self.rank = udg._ranks if weights is None else edge_ranks(weights, edges)
        src, edge = edges.T.ravel(), np.tile(np.arange(m), 2)
        # every (src, edge) entry is distinct and ranks are distinct per
        # edge, so the key is unique and has one sorted order
        check_key_span(udg.n * m, "neighbour-table")
        order = np.argsort(src * np.int64(m) + self.rank[edge])
        self.src, self.edge = src[order], edge[order]
        self.dst = edges[:, ::-1].T.ravel()[order]
        self.slot = inverse_permutation(order).reshape(2, m).T
        self.indptr = np.r_[0, np.cumsum(np.bincount(src, minlength=udg.n))]

    def directions(self) -> np.ndarray:
        """Angle of every entry ``src -> dst``, in ``[0, 2*pi)``."""
        pos = self.udg.positions
        d = pos[self.dst] - pos[self.src]
        return np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * np.pi)

    def position(self, edge: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Table position of the entry of canonical ``edge`` leaving ``src``."""
        return self.slot[edge, (self.udg.edges[edge, 0] != src).astype(np.int64)]

    def edges_of(self, entries: np.ndarray) -> np.ndarray:
        """Canonical edges of the table ``entries`` (a mask or positions),
        each once and in canonical order: a scatter, not a sort."""
        keep = np.zeros(self.udg.n_edges, dtype=bool)
        keep[self.edge[entries]] = True
        return self.udg.edges[keep]

    def leading_edges(self, k: int) -> np.ndarray:
        """Canonical edges from every node to its first ``k`` neighbours."""
        return self.edges_of(run_heads(self.src, k))

    def triangles(self, sel: np.ndarray, count: np.ndarray):
        """Triangles closed by witnesses of the directed entries ``sel``.

        The witnesses of entry ``a -> b`` are the first ``count`` entries
        ``a -> w`` of row ``a``; ``w`` closes a triangle when ``{b, w}`` is
        an edge. Yields, per block of about :data:`PAIR_BLOCK` witnesses,
        ``(i, w_pos, closing)`` for the closing ones: the index into
        ``sel``, the position of ``a -> w`` and the canonical index of
        ``{b, w}``.
        """
        n, keys = self.udg.n, edge_keys(self.udg.edges, self.udg.n)
        blocks = 1 + int(count.sum()) // PAIR_BLOCK
        for part in np.array_split(np.arange(sel.size), blocks):
            c = count[part]
            i = np.repeat(part, c)
            offset = np.arange(i.size) - np.repeat(np.cumsum(c) - c, c)
            w_pos = self.indptr[self.src[sel[i]]] + offset
            b, w = self.dst[sel[i]], self.dst[w_pos]
            key = np.minimum(b, w) * np.int64(n) + np.maximum(b, w)
            closing = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            hit = keys[closing] == key
            yield i[hit], w_pos[hit], closing[hit]
