"""Generators for every node-placement instance used in the paper.

Each generator returns an ``(n, 2)`` float64 position array (highway
instances have y = 0 and x sorted ascending). The adversarial constructions
(`exponential_chain`, `two_exponential_chains`, `cluster_with_remote`)
reproduce the paper's Figures 1, 3 and 6 exactly; random generators provide
the sweeps used by the experiment harness.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils import as_generator, check_positions


def exponential_chain(n: int, *, normalize: bool = True) -> np.ndarray:
    """The exponential node chain of Section 5.1 (Figure 6).

    ``n`` nodes on a line with the gap between nodes ``i`` and ``i+1`` equal
    to ``2**i``. With ``normalize=True`` (the paper's assumption) positions
    are rescaled so the total span ``2**(n-1) - 1`` becomes exactly 1, i.e.
    every node can reach every other node within unit transmission range and
    the UDG is complete (Delta = n - 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 1024:
        raise ValueError(
            "exponential_chain is limited to n <= 1024: the span 2**(n-1)-1 "
            "(or its normalized reciprocal gaps) exceeds float64 range beyond"
        )
    xs = np.zeros(n, dtype=np.float64)
    if n > 1:
        if normalize:
            # x_i = (2**i - 1) / (2**(n-1) - 1), computed in scaled form so
            # neither 2**i nor the total span ever overflows float64
            small = 2.0 ** -(n - 1.0)
            xs = (2.0 ** (np.arange(n) - (n - 1.0)) - small) / (1.0 - small)
            xs[0] = 0.0
            xs[-1] = 1.0
        else:
            xs[1:] = np.cumsum(2.0 ** np.arange(n - 1))
    out = np.zeros((n, 2), dtype=np.float64)
    out[:, 0] = xs
    return out


def uniform_chain(n: int, *, spacing: float = 1.0) -> np.ndarray:
    """``n`` equally spaced nodes on a line (the A_gen worst case of §5.3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    out = np.zeros((n, 2), dtype=np.float64)
    out[:, 0] = spacing * np.arange(n)
    return out


def random_highway(
    n: int,
    *,
    length: float | None = None,
    max_gap: float | None = None,
    seed=None,
) -> np.ndarray:
    """Random one-dimensional (highway-model) instance, x sorted ascending.

    Exactly one of ``length`` / ``max_gap`` selects the mode:

    - ``length``: ``n`` i.i.d. uniform positions on ``[0, length]`` (may be
      disconnected as a unit disk graph if gaps exceed 1);
    - ``max_gap``: consecutive gaps drawn uniformly from ``(0, max_gap]`` so
      the instance is UDG-connected whenever ``max_gap <= 1``.

    Defaults to ``max_gap=1.0`` when neither is given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if length is not None and max_gap is not None:
        raise ValueError("pass at most one of length / max_gap")
    rng = as_generator(seed)
    if length is not None:
        if length < 0:
            raise ValueError("length must be non-negative")
        xs = np.sort(rng.uniform(0.0, length, size=n))
    else:
        gap = 1.0 if max_gap is None else float(max_gap)
        if gap <= 0:
            raise ValueError("max_gap must be positive")
        gaps = rng.uniform(0.0, gap, size=n - 1) if n > 1 else np.empty(0)
        # avoid zero gaps (coincident nodes) which make instances degenerate
        gaps = np.maximum(gaps, 1e-9 * gap)
        xs = np.concatenate([[0.0], np.cumsum(gaps)])
    out = np.zeros((n, 2), dtype=np.float64)
    out[:, 0] = xs
    return out


def fragmented_exponential_chain(
    n_fragments: int, fragment_size: int, *, gap: float = 0.9
) -> np.ndarray:
    """Several scaled exponential chains laid end to end on the highway.

    Each fragment is an exponential chain normalised to span ``gap`` (< 1 so
    the chain is internally complete in the UDG) and consecutive fragments
    are separated by ``gap`` as well, keeping the whole instance
    UDG-connected. Used as a mid-difficulty A_apx workload: gamma grows with
    ``fragment_size`` but not with ``n_fragments``.
    """
    if n_fragments < 1 or fragment_size < 1:
        raise ValueError("n_fragments and fragment_size must be >= 1")
    if not 0 < gap <= 1:
        raise ValueError("gap must lie in (0, 1]")
    xs: list[np.ndarray] = []
    offset = 0.0
    base = exponential_chain(fragment_size, normalize=True)[:, 0] * gap
    for _ in range(n_fragments):
        xs.append(base + offset)
        offset += gap + gap
    out = np.zeros((n_fragments * fragment_size, 2), dtype=np.float64)
    out[:, 0] = np.concatenate(xs)
    return out


def two_exponential_chains(
    m: int, *, eps: float = 0.05, helper_fraction: float = 0.9
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The Theorem 4.1 instance (Figure 3): two exponential node chains.

    - Horizontal chain ``h_0 .. h_{m-1}`` with ``d(h_i, h_{i+1}) = 2**i``
      (so ``h_i`` sits at ``x = 2**i - 1``).
    - Diagonal chain ``v_i`` vertically above ``h_i``, displaced by
      ``d_i = (1 + eps) * 2**(i-1)`` — "a little more" than ``h_i``'s
      distance to its left neighbour (for ``i = 0`` the pattern is continued
      with ``d_0 = (1 + eps) / 2``, keeping the ``v`` chain exponential as
      the paper notes).
    - Helper node ``t_i`` on the segment ``v_{i-1} v_i`` at fraction
      ``helper_fraction`` towards ``v_{i-1}``, chosen so that
      ``d(h_i, t_i) > d(h_i, v_i)`` (verified; raises if violated).

    Returns ``(positions, groups)`` where ``groups`` maps ``"h"``, ``"v"``
    and ``"t"`` to the index arrays of each chain. The construction makes
    every node's nearest neighbour unique, the Nearest Neighbor Forest
    connect the horizontal chain linearly, and admits an O(1)-interference
    spanning tree that avoids the horizontal chain (Figure 5).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 0.1) for the proof geometry")
    if not 0.85 <= helper_fraction < 1:
        raise ValueError("helper_fraction must lie in [0.85, 1)")
    h = np.zeros((m, 2), dtype=np.float64)
    h[:, 0] = 2.0 ** np.arange(m) - 1.0
    v = np.zeros((m, 2), dtype=np.float64)
    v[:, 0] = h[:, 0]
    v[:, 1] = (1.0 + eps) * 2.0 ** (np.arange(m) - 1.0)
    # helper t_i between v_{i-1} and v_i, i = 1..m-1
    s = helper_fraction
    t = v[:-1] * s + v[1:] * (1.0 - s)
    # verify the paper's helper condition d(h_i, t_i) > d(h_i, v_i)
    for i in range(1, m):
        d_ht = math.hypot(*(h[i] - t[i - 1]))
        d_hv = math.hypot(*(h[i] - v[i]))
        if d_ht <= d_hv:
            raise ValueError(
                f"helper condition violated at i={i}: "
                f"d(h_i, t_i)={d_ht:.6g} <= d(h_i, v_i)={d_hv:.6g}; "
                "increase helper_fraction"
            )
    positions = np.concatenate([h, v, t], axis=0)
    groups = {
        "h": np.arange(m, dtype=np.int64),
        "v": np.arange(m, 2 * m, dtype=np.int64),
        "t": np.arange(2 * m, 3 * m - 1, dtype=np.int64),
    }
    return positions, groups


def cluster_with_remote(
    n: int,
    *,
    cluster_radius: float = 0.05,
    remote_distance: float = 1.0,
    seed=None,
) -> np.ndarray:
    """The Figure 1 instance: a homogeneous cluster plus one remote node.

    ``n - 1`` nodes are placed uniformly in a disk of ``cluster_radius``
    around the origin; node ``n - 1`` sits at ``(remote_distance, 0)``.
    With ``remote_distance <= 1`` the unit disk graph stays connected, but
    any connecting link must span (almost) the whole network — the instance
    on which the sender-centric measure jumps from O(1) to n while the
    receiver-centric measure moves by a small constant.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if cluster_radius <= 0 or remote_distance <= cluster_radius:
        raise ValueError("need 0 < cluster_radius < remote_distance")
    rng = as_generator(seed)
    pos = np.zeros((n, 2), dtype=np.float64)
    pos[: n - 1] = random_cluster(
        n - 1, center=(0.0, 0.0), radius=cluster_radius, seed=rng
    )
    pos[n - 1] = (remote_distance, 0.0)
    return pos


def random_uniform_square(n: int, *, side: float = 1.0, seed=None) -> np.ndarray:
    """``n`` i.i.d. uniform points in the axis-aligned square ``[0, side]^2``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if side <= 0:
        raise ValueError("side must be positive")
    rng = as_generator(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def random_blobs(
    n: int,
    *,
    side: float = 1.0,
    blobs: int = 10,
    spread: float = 0.05,
    seed=None,
) -> np.ndarray:
    """``n`` points in ``blobs`` Gaussian clusters inside ``[0, side]^2``.

    Blob centers are uniform in the square; each point picks a blob
    uniformly and adds an isotropic normal offset of scale ``spread``
    (clipped back to the square). A non-uniform counterpart to
    :func:`random_uniform_square` for load-balance studies — clustered
    enough that uniform spatial partitions skew, but every region keeps
    some mass.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if side <= 0:
        raise ValueError("side must be positive")
    if blobs < 1:
        raise ValueError("blobs must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = as_generator(seed)
    centers = rng.uniform(0.0, side, size=(blobs, 2))
    member = rng.integers(0, blobs, size=n)
    offsets = rng.normal(0.0, spread, size=(n, 2))
    return np.clip(centers[member] + offsets, 0.0, side)


def random_cluster(n: int, *, center=(0.0, 0.0), radius: float = 1.0, seed=None):
    """``n`` i.i.d. uniform points in the disk of ``radius`` about ``center``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = as_generator(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    out = np.empty((n, 2), dtype=np.float64)
    out[:, 0] = center[0] + r * np.cos(theta)
    out[:, 1] = center[1] + r * np.sin(theta)
    return out


def grid_points(rows: int, cols: int, *, spacing: float = 1.0) -> np.ndarray:
    """A ``rows x cols`` axis-aligned grid with the given spacing."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    ys, xs = np.mgrid[0:rows, 0:cols]
    out = np.empty((rows * cols, 2), dtype=np.float64)
    out[:, 0] = xs.ravel() * spacing
    out[:, 1] = ys.ravel() * spacing
    return out


def perturb(positions, *, sigma: float, seed=None) -> np.ndarray:
    """Add i.i.d. Gaussian noise of scale ``sigma`` to every coordinate."""
    pos = check_positions(positions)
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    rng = as_generator(seed)
    return pos + rng.normal(0.0, sigma, size=pos.shape)


def random_udg_connected(
    n: int,
    *,
    side: float,
    unit: float = 1.0,
    seed=None,
    max_tries: int = 200,
) -> np.ndarray:
    """Uniform points in a square, rejection-sampled until UDG-connected.

    Raises ``RuntimeError`` after ``max_tries`` rejections — pick a smaller
    ``side`` (higher density) if that happens.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from repro.geometry.points import pairwise_within

    rng = as_generator(seed)
    for _ in range(max_tries):
        pos = random_uniform_square(n, side=side, seed=rng)
        i, j = pairwise_within(pos, unit).T
        graph = csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
        if connected_components(graph, directed=False)[0] == 1:
            return pos
    raise RuntimeError(
        f"no connected UDG found in {max_tries} tries "
        f"(n={n}, side={side}, unit={unit}); increase density"
    )
