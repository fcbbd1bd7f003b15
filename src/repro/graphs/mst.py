"""Minimum spanning trees / forests: Kruskal over :class:`Graph` and the
Euclidean MST of a point set."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.graphs.core import Graph
from repro.graphs.unionfind import DisjointSet
from repro.utils import check_edge_array, check_positions
from repro.utils.validation import check_key_span, edge_keys, edges_from_keys


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
    ``triu_indices``): then ``(lo, hi)`` order is row-index order, and the
    order is that of the unique key ``(weight, index)``. One unstable
    argsort of ``weights`` finds it up to runs of equal weights (``-0.0``
    equals ``0.0``; every NaN sorts into one final run), and a small sort
    over only the tied positions restores ascending index order inside
    each run. The precondition is checked in O(m) on monotone edge keys;
    unsorted edges raise ``ValueError``.
    """
    edges = np.asarray(edges)
    weights = np.asarray(weights)
    if len(weights) != edges.shape[0]:
        raise ValueError("weights and edges differ in length")
    if edges.shape[0] > 1:
        keys = edge_keys(edges, int(edges[:, 1].max()) + 1)
        if not np.all(keys[1:] >= keys[:-1]):
            raise ValueError("edges must be in lexicographic (lo, hi) order")
    order = np.argsort(weights)
    w = weights[order]
    tie = w[1:] == w[:-1]
    if w.dtype.kind in "fc" and w.size and np.isnan(w[-1]):
        tie |= np.isnan(w[:-1])  # NaNs sort last, so they form one run
    _sort_tied_runs(order, tie)
    return order


def _sort_tied_runs(order: np.ndarray, tie: np.ndarray) -> None:
    """Sort ``order`` ascending inside every run of tied positions, in
    place; ``tie[i]`` joins positions ``i`` and ``i + 1``.

    Only the tied positions are touched: one sort of the unique key
    ``run * m + index`` lists each run's indices ascending, runs in place.
    """
    at = np.flatnonzero(tie)
    if at.size == 0:
        return
    m = order.size
    tied = np.zeros(m, dtype=bool)
    tied[at] = tied[at + 1] = True
    pos = np.flatnonzero(tied)
    start = np.ones(pos.size, dtype=bool)
    start[1:] = ~tie[pos[1:] - 1]
    run = np.cumsum(start) - 1
    check_key_span(int(run[-1] + 1) * m, "tied-run order")
    base = run * np.int64(m)
    order[pos] = np.sort(base + order[pos]) - base


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """The inverse of permutation ``perm``, scattered in O(m) rather than
    re-sorted."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def edge_ranks(weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Position of every edge in :func:`edge_order` (0 = best): the
    inverse permutation."""
    return inverse_permutation(edge_order(weights, edges))


def rank_spanning_forest(n: int, edges: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Minimum spanning forest of canonical ``edges`` over ``n`` nodes
    under the distinct integer weights ``ranks``.

    Distinct weights make the forest unique. One scipy
    minimum-spanning-forest call over the ``rank + 1`` weights (weight 0
    reads as "no edge"). Returns a ``(k, 2)`` canonical int64 array.
    """
    if edges.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    graph = coo_matrix((ranks + 1.0, (edges[:, 0], edges[:, 1])), shape=(n, n))
    forest = minimum_spanning_tree(graph.tocsr()).tocoo()
    keys = np.minimum(forest.row, forest.col).astype(np.int64) * n
    keys += np.maximum(forest.row, forest.col)
    return edges_from_keys(np.sort(keys), n)


def euclidean_mst_edges(positions, candidate_edges=None) -> np.ndarray:
    """Edge array of the Euclidean MST (forest) of a point set.

    ``candidate_edges`` restricts the MST to a subgraph's edges (e.g. the
    unit disk graph); by default the complete graph is used. Ties are
    broken by :func:`edge_order`, so the forest is unique: the
    :func:`rank_spanning_forest` of the length ranks. Returns an
    ``(m, 2)`` canonical int64 array.
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
    return rank_spanning_forest(n, cand, edge_ranks(np.hypot(d[:, 0], d[:, 1]), cand))
