"""Argument validation shared across the library.

These helpers normalise user input to canonical numpy layouts and raise
``ValueError``/``TypeError`` with actionable messages. They are intentionally
cheap (no copies when the input is already canonical) so they can guard every
public entry point.
"""

from __future__ import annotations

import numpy as np


def check_positions(positions, *, name: str = "positions") -> np.ndarray:
    """Validate and canonicalise an ``(n, 2)`` float64 position array.

    Accepts any array-like of shape ``(n, 2)`` or ``(n,)`` (treated as 1-D
    highway coordinates, lifted to y = 0). Returns a C-contiguous float64
    array; the input is returned as-is when it already is one (no copy).
    """
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim == 1:
        lifted = np.zeros((arr.shape[0], 2), dtype=np.float64)
        lifted[:, 0] = arr
        arr = lifted
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"{name} must have shape (n, 2) or (n,), got {arr.shape!r}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return np.ascontiguousarray(arr)


def check_radii(radii, n: int, *, name: str = "radii") -> np.ndarray:
    """Validate a length-``n`` non-negative float64 radius vector."""
    arr = np.asarray(radii, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    return arr


#: Largest n whose edge keys (at most n**2 - 1) fit in int64.
EDGE_KEY_MAX_N = 3_037_000_499


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """int64 key ``lo * n + hi`` per canonical edge row; keys sort like rows."""
    return edges[:, 0] * np.int64(n) + edges[:, 1]


def check_key_span(span: int, what: str) -> None:
    """Raise ``ValueError`` unless combined int64 keys ``0 .. span - 1`` fit.

    ``span`` is a Python int (the product of the key's factor ranges, so it
    cannot wrap); ``what`` names the key in the message. Every combined
    sort key is guarded here, as :func:`check_edge_array` guards
    :func:`edge_keys`: an overflowing key raises, no second path runs.
    """
    if span > 1 << 63:
        raise ValueError(f"{what} keys overflow int64 ({span} values)")


def edges_from_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Decode :func:`edge_keys` back into an ``(m, 2)`` int64 edge array."""
    out = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(out[:, 0], out[:, 1]))
    return out


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int64 key array: one sort plus an
    adjacent-difference mask (numpy's ``unique`` runs many times slower)."""
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys


def check_edge_array(edges, n: int, *, name: str = "edges") -> np.ndarray:
    """Validate an ``(m, 2)`` integer edge array over nodes ``0..n-1``.

    Self-loops are rejected. The returned array is int64 with each row sorted
    ``(min, max)``, duplicate rows removed, and rows in lexicographic order.
    """
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must have shape (m, 2), got {arr.shape!r}")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{name} indices must lie in [0, {n})")
    if n > EDGE_KEY_MAX_N:
        raise ValueError(f"n must be <= {EDGE_KEY_MAX_N} for int64 edge keys")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise ValueError(f"{name} must not contain self-loops")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    canon = np.stack([lo, hi], axis=1)
    keys = edge_keys(canon, n)
    if np.all(keys[1:] > keys[:-1]):
        return canon  # already canonical, as the UDG kernels emit it: O(m)
    return edges_from_keys(sorted_unique(keys), n)
