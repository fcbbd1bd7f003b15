"""Minimum spanning trees / forests: Kruskal over :class:`Graph` and the
Euclidean MST of a point set."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.graphs.core import Graph
from repro.graphs.unionfind import DisjointSet
from repro.utils import check_edge_array, check_positions
from repro.utils.validation import edge_keys, edges_from_keys


def kruskal_mst(graph: Graph) -> Graph:
    """Minimum spanning forest of ``graph`` via Kruskal's algorithm.

    Works per component (a spanning forest when disconnected). Ties are
    broken by canonical edge order, so the result is deterministic.
    """
    edges = sorted(
        graph.edges(), key=lambda e: (graph.weight(*e), e[0], e[1])
    )
    ds = DisjointSet(graph.n)
    out = Graph(graph.n)
    for u, v in edges:
        if ds.union(u, v):
            out.add_edge(u, v, graph.weight(u, v))
            if ds.n_components == 1:
                break
    return out


def edge_order(weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Indices of canonical ``edges`` sorted by ``(weight, lo, hi)``
    ascending: the one link order (and MST tie-break) of the library.

    ``edges`` must be in lexicographic row order, as every canonical edge
    array is (:attr:`Topology.edges`, :func:`check_edge_array` output,
    ``triu_indices``): then one stable sort of ``weights`` breaks ties by
    row index, which is ``(lo, hi)`` order. The precondition is checked in
    O(m) on monotone edge keys; unsorted edges raise ``ValueError``.
    """
    edges = np.asarray(edges)
    if len(weights) != edges.shape[0]:
        raise ValueError("weights and edges differ in length")
    if edges.shape[0] > 1:
        keys = edge_keys(edges, int(edges[:, 1].max()) + 1)
        if not np.all(keys[1:] >= keys[:-1]):
            raise ValueError("edges must be in lexicographic (lo, hi) order")
    return np.argsort(weights, kind="stable")


def edge_ranks(weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Position of every edge in :func:`edge_order` (0 = best): the
    inverse permutation, scattered in O(m) rather than re-sorted."""
    order = edge_order(weights, edges)
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


def euclidean_mst_edges(positions, candidate_edges=None) -> np.ndarray:
    """Edge array of the Euclidean MST (forest) of a point set.

    ``candidate_edges`` restricts the MST to a subgraph's edges (e.g. the
    unit disk graph); by default the complete graph is used. Ties are
    broken by :func:`edge_order`, so the forest is unique: one scipy
    minimum-spanning-forest call over the ``rank + 1`` weights (weight 0
    reads as "no edge"). Returns an ``(m, 2)`` canonical int64 array.
    """
    pos = check_positions(positions)
    n = pos.shape[0]
    if candidate_edges is None:
        cand = np.stack(np.triu_indices(n, k=1), axis=1)
    else:
        cand = check_edge_array(candidate_edges, n, name="candidate_edges")
    if cand.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    d = pos[cand[:, 0]] - pos[cand[:, 1]]
    rank = edge_ranks(np.hypot(d[:, 0], d[:, 1]), cand)
    graph = coo_matrix((rank + 1.0, (cand[:, 0], cand[:, 1])), shape=(n, n))
    forest = minimum_spanning_tree(graph.tocsr()).tocoo()
    keys = np.minimum(forest.row, forest.col).astype(np.int64) * n
    keys += np.maximum(forest.row, forest.col)
    return edges_from_keys(np.sort(keys), n)
