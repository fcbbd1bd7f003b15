"""Incrementally maintained receiver-centric interference.

Recomputing ``I(v)`` from scratch costs O(n^2); topology-search algorithms
(A_exp's scan line, the 2-D local search of :mod:`repro.extensions`) change
one radius at a time, which only moves coverage inside a single annulus.
:class:`InterferenceTracker` maintains per-node coverage counts under
radius changes in O(n) per update, in both directions (growth *and*
shrinkage, unlike the one-shot bookkeeping inside ``a_exp``).

The tracker is deliberately radius-centric: per the model reduction used
throughout this library (see :mod:`repro.opt.candidates`), interference
depends on the edge set only through each node's farthest-neighbour
radius.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.interference.receiver import ATOL, RTOL
from repro.model.topology import Topology
from repro.utils import check_positions, check_radii


class InterferenceTracker:
    """Coverage counts over a fixed point set with mutable radii.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates (fixed for the tracker's lifetime).
    radii:
        Optional initial radius vector (defaults to all zeros).
    """

    def __init__(self, positions, radii=None, *, rtol: float = RTOL, atol: float = ATOL):
        self.positions = check_positions(positions)
        self.n = self.positions.shape[0]
        self._rtol = float(rtol)
        self._atol = float(atol)
        self._radii = np.zeros(self.n, dtype=np.float64)
        self._counts = np.zeros(self.n, dtype=np.int64)
        #: nodes with at least one incident edge (radius-0 via an edge to a
        #: coincident node still covers that node; radius-0 with no edge
        #: covers nobody)
        self._active = np.zeros(self.n, dtype=bool)
        if radii is not None:
            radii = check_radii(radii, self.n)
            for u in range(self.n):
                if radii[u] > 0:
                    self.set_radius(u, float(radii[u]))

    # -- queries ---------------------------------------------------------
    @property
    def radii(self) -> np.ndarray:
        return self._radii.copy()

    def node_interference(self) -> np.ndarray:
        """Current per-node interference vector (a copy)."""
        return self._counts.copy()

    def graph_interference(self) -> int:
        return int(self._counts.max()) if self.n else 0

    def interference_of(self, v: int) -> int:
        return int(self._counts[v])

    # -- updates -----------------------------------------------------------
    def _covered_by(self, u: int, radius: float, active: bool) -> np.ndarray:
        if not active:
            return np.zeros(self.n, dtype=bool)
        d = np.hypot(
            self.positions[:, 0] - self.positions[u, 0],
            self.positions[:, 1] - self.positions[u, 1],
        )
        mask = d <= radius * (1.0 + self._rtol) + self._atol
        mask[u] = False
        return mask

    def set_radius(self, u: int, radius: float) -> None:
        """Set ``r_u`` to an arbitrary non-negative value; O(n)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        obs.count("tracker.updates")
        old = self._covered_by(u, self._radii[u], self._active[u])
        new = self._covered_by(u, radius, True)
        self._counts[new & ~old] += 1
        self._counts[old & ~new] -= 1
        self._radii[u] = radius
        self._active[u] = True

    def deactivate(self, u: int) -> None:
        """Drop ``u`` to an edge-less state (covers nobody)."""
        obs.count("tracker.updates")
        old = self._covered_by(u, self._radii[u], self._active[u])
        self._counts[old] -= 1
        self._radii[u] = 0.0
        self._active[u] = False

    def grow_to(self, u: int, radius: float) -> None:
        """Raise ``r_u`` to ``radius`` if larger (no-op otherwise)."""
        if not self._active[u] or radius > self._radii[u]:
            self.set_radius(u, radius)

    def peek_max_after(self, changes) -> int:
        """Hypothetical ``I(G)`` after applying ``changes`` without mutating.

        ``changes`` is an iterable of ``(node, new_radius)`` pairs (later
        entries override earlier ones for the same node). O(n) per change.
        """
        obs.count("tracker.peeks")
        counts = self._counts.copy()
        pending: dict[int, float] = {}
        for u, r in changes:
            if r < 0:
                raise ValueError("radius must be non-negative")
            pending[int(u)] = float(r)
        for u, r in pending.items():
            old = self._covered_by(u, self._radii[u], self._active[u])
            new = self._covered_by(u, r, True)
            counts[new & ~old] += 1
            counts[old & ~new] -= 1
        return int(counts.max()) if counts.size else 0

    # -- bulk -----------------------------------------------------------------
    @classmethod
    def from_topology(cls, topology: Topology, **kwargs) -> "InterferenceTracker":
        tracker = cls(topology.positions, **kwargs)
        radii = topology.radii
        degrees = topology.degrees
        for u in range(topology.n):
            if degrees[u] > 0:
                tracker.set_radius(u, float(radii[u]))
        return tracker

    def load_radii(self, radii, active=None) -> None:
        """Replace the whole radius vector (O(n^2) total)."""
        radii = check_radii(radii, self.n)
        if active is None:
            active = radii > 0
        for u in range(self.n):
            if active[u]:
                self.set_radius(u, float(radii[u]))
            else:
                self.deactivate(u)

    def copy(self) -> "InterferenceTracker":
        out = InterferenceTracker.__new__(InterferenceTracker)
        out.positions = self.positions
        out.n = self.n
        out._rtol = self._rtol
        out._atol = self._atol
        out._radii = self._radii.copy()
        out._counts = self._counts.copy()
        out._active = self._active.copy()
        return out
