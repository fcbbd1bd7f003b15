"""``random_udg_connected`` against a frozen copy of its scipy-based form.

The generator used to test each draw's connectivity by building a
``scipy.sparse.csr_matrix`` from the UDG pairs and counting components
with ``scipy.sparse.csgraph.connected_components``. It now runs
:func:`repro.graphs.traversal.edges_connected` over the same pairs. Both
must consume the same RNG draws and make the same accept/reject
decisions, so the positions are bit-identical and the ``max_tries``
error is unchanged. Digest parity across serve shards cannot show a
generator change (every side runs the same code); this copy can.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.generators import random_udg_connected, random_uniform_square
from repro.geometry.points import pairwise_within
from repro.utils import as_generator


def scipy_random_udg_connected(n, *, side, unit=1.0, seed=None, max_tries=200):
    """The generator as it was, plus the number of draws it took."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = as_generator(seed)
    for tries in range(1, max_tries + 1):
        pos = random_uniform_square(n, side=side, seed=rng)
        i, j = pairwise_within(pos, unit).T
        graph = csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
        if connected_components(graph, directed=False)[0] == 1:
            return pos, tries
    raise RuntimeError(
        f"no connected UDG found in {max_tries} tries "
        f"(n={n}, side={side}, unit={unit}); increase density"
    )


#: (n, side): the serve mix (n 24-48 at side 2), n = 1 and 2, mid sizes,
#: and low densities that reject many draws before one connects
GRID = [
    (1, 2.0),
    (2, 0.5),
    (2, 1.2),
    (5, 1.5),
    (24, 2.0),
    (36, 2.0),
    (48, 2.0),
    (30, 3.0),
    (60, 4.0),
    (12, 2.6),
    (30, 4.5),
    (20, 4.0),
]


@pytest.mark.parametrize("n, side", GRID)
def test_bit_identical_positions(n, side):
    for seed in range(8):
        want, _ = scipy_random_udg_connected(n, side=side, seed=seed)
        got = random_udg_connected(n, side=side, seed=seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (n, side, seed)


def test_low_density_draws_reject_many_times():
    tries = []
    for seed in range(6):
        want, t = scipy_random_udg_connected(20, side=4.0, seed=seed)
        tries.append(t)
        got = random_udg_connected(20, side=4.0, seed=seed)
        assert got.tobytes() == want.tobytes(), seed
    assert min(tries) >= 10  # every seed rejected many draws first


def test_non_default_unit_and_generator_seed():
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(4):
        want, _ = scipy_random_udg_connected(20, side=4.0, unit=1.7, seed=rng_a)
        got = random_udg_connected(20, side=4.0, unit=1.7, seed=rng_b)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, side, max_tries", [(5, 1000.0, 3), (2, 50.0, 7)])
def test_max_tries_error_is_unchanged(n, side, max_tries):
    with pytest.raises(RuntimeError) as want:
        scipy_random_udg_connected(n, side=side, seed=1, max_tries=max_tries)
    with pytest.raises(RuntimeError) as got:
        random_udg_connected(n, side=side, seed=1, max_tries=max_tries)
    assert str(got.value) == str(want.value)


def test_empty_instance_is_connected():
    # zero components failed the old `== 1` test, so n = 0 rejected every
    # draw and raised; the empty graph counts as connected, as it does
    # for graphs.is_connected
    with pytest.raises(RuntimeError):
        scipy_random_udg_connected(0, side=1.0, seed=0, max_tries=3)
    assert random_udg_connected(0, side=1.0, seed=0).shape == (0, 2)


def test_no_scipy_sparse_in_the_draw_loop(monkeypatch):
    import scipy.sparse
    import scipy.sparse.csgraph

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse reached from random_udg_connected")

    monkeypatch.setattr(scipy.sparse, "csr_matrix", refuse)
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", refuse)
    assert random_udg_connected(36, side=2.0, seed=3).shape == (36, 2)
