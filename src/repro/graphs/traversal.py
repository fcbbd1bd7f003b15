"""Breadth-first traversal, connectivity and components."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.core import Graph


def bfs_order(graph: Graph, source: int) -> list[int]:
    """Nodes reachable from ``source`` in BFS visitation order."""
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    seen = [False] * graph.n
    seen[source] = True
    order = [source]
    q = deque([source])
    while q:
        u = q.popleft()
        for v in sorted(graph.neighbors(u)):
            if not seen[v]:
                seen[v] = True
                order.append(v)
                q.append(v)
    return order


def connected_components(graph: Graph) -> list[list[int]]:
    """List of components, each a sorted node list; components sorted by min node."""
    seen = [False] * graph.n
    comps: list[list[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = []
        q = deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: Graph) -> bool:
    """True iff the graph has at most one connected component.

    The empty graph and single-node graph count as connected.
    """
    if graph.n <= 1:
        return True
    return len(bfs_order(graph, 0)) == graph.n


def edges_connected(n: int, edges) -> bool:
    """True iff nodes ``0..n-1`` joined by the ``(m, 2)`` pairs ``edges``
    form at most one connected component (``n <= 1`` counts as connected,
    as in :func:`is_connected`).

    Array label propagation over the pair list, O(n + m) memory: every
    node holds a label, a node index no larger than itself, pointing at
    the root of its tree. Each round hooks the root at one end of every
    pair whose ends disagree onto the smaller root at the other end, then
    jumps pointers until every label is a root again. Labels only shrink,
    so rounds end when every pair agrees. The graph is then connected
    iff every node carries node 0's label, 0. Pairs may come in any
    order and either orientation; duplicates and self-loops are harmless.
    """
    if n <= 1:
        return True
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] < n - 1:
        return False  # a spanning tree alone needs n - 1 pairs
    u, v = pairs[:, 0], pairs[:, 1]
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return not label.any()
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, lu, lv)
        np.minimum.at(label, lv, lu)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
