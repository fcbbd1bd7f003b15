"""The ``Topology`` abstraction: a point set plus a chosen symmetric edge set.

Per Section 3 of the paper, a topology-control output is an undirected
subgraph of the unit disk graph. Each node ``u`` then transmits with the
power needed to reach its farthest neighbour, giving it the radius
``r_u = max_{v in N_u} |u, v|`` (zero for isolated nodes). All interference
measures are functions of the topology through these radii.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graphs.core import Graph
from repro.graphs.mst import edge_ranks, inverse_permutation
from repro.graphs.traversal import edges_connected
from repro.utils import check_edge_array, check_positions
from repro.utils.validation import check_key_span, edge_keys


class Topology:
    """Immutable point set + symmetric edge set with derived radii.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates (1-D arrays are lifted to y = 0).
    edges:
        ``(m, 2)`` array-like of node index pairs; canonicalised and
        de-duplicated.

    Notes
    -----
    Instances are treated as immutable: all "mutating" operations return new
    topologies, and derived quantities (radii, adjacency, lengths) are
    cached on first use.
    """

    def __init__(self, positions, edges=()):
        self.positions = check_positions(positions)
        self.n = self.positions.shape[0]
        self.edges = check_edge_array(edges, self.n)
        self.edges.setflags(write=False)
        self.positions.setflags(write=False)

    # -- factories ----------------------------------------------------------
    @classmethod
    def empty(cls, positions) -> "Topology":
        """Edge-free topology over the given points."""
        return cls(positions, ())

    @classmethod
    def from_graph(cls, positions, graph: Graph) -> "Topology":
        return cls(positions, graph.edge_array())

    # -- derived geometry ----------------------------------------------------
    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Euclidean length of each row of :attr:`edges`."""
        if self.edges.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        d = self.positions[self.edges[:, 0]] - self.positions[self.edges[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def radii(self) -> np.ndarray:
        """Per-node transmission radius ``r_u`` (distance to farthest neighbour).

        Isolated nodes get radius 0 — they transmit nothing and cover
        nobody, matching the paper's convention.
        """
        r = np.zeros(self.n, dtype=np.float64)
        if self.edges.shape[0]:
            lengths = self.edge_lengths
            np.maximum.at(r, self.edges[:, 0], lengths)
            np.maximum.at(r, self.edges[:, 1], lengths)
        r.setflags(write=False)
        return r

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if self.edges.shape[0]:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _ranks(self) -> np.ndarray:
        """Read-only rank of every edge in the ``(length, lo, hi)`` link
        order (:func:`repro.graphs.mst.edge_ranks`): the one ranking the
        topology-control builders share."""
        ranks = edge_ranks(self.edge_lengths, self.edges)
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def _coverage_ranks(self) -> np.ndarray:
        """Read-only rank of every edge in the ``(coverage, length, lo, hi)``
        order, coverage being :func:`repro.interference.sender.edge_coverage`:
        the one coverage scan LIFE and LISE share. Coverage ties go by
        :attr:`_ranks` (one argsort of the unique key ``coverage * m + rank``)."""
        from repro.interference.sender import edge_coverage  # imports this module

        coverage, m = edge_coverage(self), self.n_edges
        check_key_span((int(coverage.max(initial=0)) + 1) * m, "coverage-order")
        ranks = inverse_permutation(np.argsort(coverage * np.int64(m) + self._ranks))
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def _keys(self) -> np.ndarray:
        """Sorted int64 edge keys (:func:`repro.utils.validation.edge_keys`)."""
        return edge_keys(self.edges, self.n)

    @cached_property
    def _adjacency(self) -> list[frozenset[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges.tolist():
            adj[u].add(v)
            adj[v].add(u)
        return [frozenset(s) for s in adj]

    # -- queries --------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def neighbors(self, u: int) -> frozenset[int]:
        return self._adjacency[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency[u]

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def as_graph(self, *, weighted: bool = True) -> Graph:
        """Convert to :class:`repro.graphs.Graph` (weights = edge lengths)."""
        if weighted:
            return Graph.from_edge_array(self.n, self.edges, self.edge_lengths)
        return Graph.from_edge_array(self.n, self.edges)

    def is_connected(self) -> bool:
        return edges_connected(self.n, self.edges)

    def is_subgraph_of(self, other: "Topology") -> bool:
        """True iff every edge of ``self`` also appears in ``other``."""
        if self.n != other.n:
            return False
        return bool(np.isin(self._keys, other._keys).all())

    def contains_edges(self, edges) -> bool:
        """True iff every row of ``edges`` is an edge of this topology."""
        arr = check_edge_array(edges, self.n)
        return bool(np.isin(edge_keys(arr, self.n), self._keys).all())

    # -- derived topologies ----------------------------------------------------
    def with_edges(self, extra) -> "Topology":
        """New topology with ``extra`` edges unioned in."""
        arr = check_edge_array(extra, self.n)
        return Topology(self.positions, np.concatenate([self.edges, arr], axis=0))

    def without_edges(self, drop) -> "Topology":
        """New topology with the given edges removed (missing edges ignored)."""
        arr = check_edge_array(drop, self.n)
        keep = ~np.isin(self._keys, edge_keys(arr, self.n))
        return Topology(self.positions, self.edges[keep])

    def add_node(self, position, attach_to=()) -> "Topology":
        """New topology with one extra node connected to ``attach_to``.

        The new node gets index ``n``; existing edges are preserved. This is
        the elementary operation of the robustness experiments (Figure 1).
        """
        pos = np.concatenate(
            [self.positions, np.asarray(position, dtype=np.float64).reshape(1, 2)]
        )
        new_edges = [(int(a), self.n) for a in attach_to]
        all_edges = list(map(tuple, self.edges)) + new_edges
        return Topology(pos, np.array(all_edges, dtype=np.int64).reshape(-1, 2))

    def remove_node(self, index: int) -> "Topology":
        """New topology with node ``index`` (and its edges) deleted.

        Remaining nodes are renumbered to stay contiguous (indices above
        ``index`` shift down by one).
        """
        if not (0 <= index < self.n):
            raise ValueError("index out of range")
        keep = np.ones(self.n, dtype=bool)
        keep[index] = False
        remap = np.cumsum(keep) - 1
        rows = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u != index and v != index
        ]
        return Topology(
            self.positions[keep],
            np.array(rows, dtype=np.int64).reshape(-1, 2),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.edges, other.edges)
        )

    def __hash__(self):
        raise TypeError("Topology is unhashable (compare with ==)")

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, m={self.n_edges})"
