"""From-scratch undirected graph substrate (no networkx in the core).

networkx is used only inside the test suite as an oracle to cross-check
these implementations.
"""

from repro.graphs.core import Graph
from repro.graphs.unionfind import DisjointSet
from repro.graphs.traversal import (
    bfs_order,
    connected_components,
    edges_connected,
    is_connected,
)
from repro.graphs.mst import kruskal_mst
from repro.graphs.paths import dijkstra, hop_distances
from repro.graphs.spanner import euclidean_stretch, graph_stretch

__all__ = [
    "Graph",
    "DisjointSet",
    "bfs_order",
    "connected_components",
    "edges_connected",
    "is_connected",
    "kruskal_mst",
    "dijkstra",
    "hop_distances",
    "euclidean_stretch",
    "graph_stretch",
]
