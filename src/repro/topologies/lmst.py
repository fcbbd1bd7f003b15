"""LMST — local minimum spanning tree topology (Li, Hou & Sha [9]).

Each node builds the MST of its closed one-hop UDG neighbourhood (with
unique lexicographic weights) and nominates its incident MST edges. The
symmetric output keeps an edge iff *both* endpoints nominate it; with
unique weights this preserves connectivity and has degree at most 6.

The unique weights are the ``(length, lo, hi)`` ranks of
:mod:`repro.topologies.ranking`. They make every local MST unique, so the
``n`` local graphs (node ``u``'s: ``u``, its table row, and every triangle
edge through ``u``) are laid side by side as blocks of one graph and a
single minimum-spanning-forest call yields all local MSTs.
O(m log m + W log W) for W = the sum over edges of the smaller degree.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.model.topology import Topology
from repro.topologies.base import register
from repro.topologies.ranking import NeighborTable


@register("lmst")
def lmst(udg: Topology) -> Topology:
    table, n, m = NeighborTable(udg), udg.n, udg.n_edges
    # block u: node u at local id indptr[u] + u, entry p (u -> v) puts v at p + u + 1
    local = np.arange(2 * m) + table.src + 1
    rows, cols = [table.indptr[table.src] + table.src], [local]
    ranks = [table.rank[table.edge]]
    # a triangle edge {a, b} joins block w for every common neighbour w
    deg = udg.degrees
    side = (deg[udg.edges[:, 1]] < deg[udg.edges[:, 0]]).astype(np.int64)
    sel = table.slot[np.arange(m), side]
    for e, w_pos, closing in table.triangles(sel, deg[table.src[sel]]):
        w = table.dst[w_pos]
        rows.append(table.position(table.edge[w_pos], w) + w + 1)
        cols.append(table.position(closing, w) + w + 1)
        ranks.append(table.rank[e])
    size = 2 * m + n
    graph = coo_matrix(  # rank + 1: the forest call reads weight 0 as no edge
        (np.concatenate(ranks) + 1.0, (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    forest = minimum_spanning_tree(graph.tocsr()).tocoo()
    entry = np.full(size, -1, dtype=np.int64)
    entry[local] = np.arange(2 * m)
    # local MST edges at a block's own node (entry -1) are its nominations
    row, col = forest.row, forest.col
    nominated = np.r_[entry[col[entry[row] < 0]], entry[row[entry[col] < 0]]]
    votes = np.bincount(table.edge[nominated], minlength=m)
    return Topology(udg.positions, udg.edges[votes == 2])
