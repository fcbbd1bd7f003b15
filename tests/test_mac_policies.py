"""Property tests for the backoff-policy zoo (repro.mac.policies)."""

import numpy as np
import pytest

from repro.mac.policies import (
    BACKOFF_POLICIES,
    AsbBackoff,
    BackoffPolicy,
    BackoffState,
    BebBackoff,
    EbebBackoff,
    EiedBackoff,
    FibonacciBackoff,
    UniformBackoff,
    _next_fibonacci,
    _prev_fibonacci,
    make_policy,
    registered_policies,
)


def _fib_upto(limit):
    seq = [1, 1]
    while seq[-1] <= limit:
        seq.append(seq[-1] + seq[-2])
    return seq


class TestRegistry:
    def test_registered_names(self):
        assert registered_policies() == (
            "asb",
            "beb",
            "ebeb",
            "eied",
            "fibonacci",
            "uniform",
        )

    def test_make_policy_by_name_with_kwargs(self):
        p = make_policy("beb", cw_min=4, cw_max=64)
        assert isinstance(p, BebBackoff)
        assert (p.cw_min, p.cw_max) == (4, 64)
        assert p.name == "beb"

    def test_make_policy_passthrough(self):
        p = UniformBackoff(window=8)
        assert make_policy(p) is p
        with pytest.raises(TypeError):
            make_policy(p, cw_max=16)

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown backoff policy"):
            make_policy("carrier-pigeon")

    def test_configs_frozen_and_hashable(self):
        for name, cls in BACKOFF_POLICIES.items():
            p = cls()
            assert p == cls() and hash(p) == hash(cls())
            with pytest.raises(AttributeError):
                p.cw_min = 99

    def test_invalid_bounds(self):
        for cls in BACKOFF_POLICIES.values():
            with pytest.raises(ValueError):
                cls(cw_min=0)
            with pytest.raises(ValueError):
                cls(cw_min=8, cw_max=4)
        with pytest.raises(ValueError):
            EiedBackoff(r_up=1.0)
        with pytest.raises(ValueError):
            EiedBackoff(r_down=0.5)
        with pytest.raises(ValueError):
            AsbBackoff(gamma=0.0)
        with pytest.raises(ValueError):
            UniformBackoff(window=0)


class TestClosedForms:
    def test_beb_power_of_two(self):
        p = BebBackoff(cw_min=2, cw_max=1024)
        state = BackoffState(window=17)  # ignored by BEB
        for k in range(20):
            assert p.next_window(k, state) == (
                p.cw_min if k == 0 else min(2 * 2**k, 1024)
            )

    def test_beb_iterated_equals_closed_form(self):
        # doubling step by step == the closed form the policy computes
        p = BebBackoff(cw_min=3, cw_max=200)
        w = p.initial_window()
        for k in range(1, 15):
            w = min(w * 2, 200)
            assert p.next_window(k, BackoffState(window=w)) == w

    def test_fibonacci_growth(self):
        p = FibonacciBackoff(cw_min=1, cw_max=1024)
        fibs = _fib_upto(1024)
        w = 1
        seen = [w]
        for _ in range(12):
            w = p.next_window(1, BackoffState(window=w))
            seen.append(w)
        # each failure steps to the next Fibonacci number
        assert seen[:10] == [f for f in fibs if f <= 1024][:10] or all(
            s in fibs or s == 1024 for s in seen
        )
        for a, b in zip(seen, seen[1:]):
            assert b == min(_next_fibonacci(a), 1024)
        # success walks back down
        down = p.next_window(0, BackoffState(window=w))
        assert down == max(_prev_fibonacci(w), 1)

    def test_fibonacci_ratio_bounded(self):
        p = FibonacciBackoff(cw_min=2, cw_max=10**6)
        w = 2
        for _ in range(25):
            nxt = p.next_window(1, BackoffState(window=w))
            if nxt == 10**6:
                break
            assert nxt / w <= 2.0  # gentler than BEB
            w = nxt

    def test_eied_factors(self):
        p = EiedBackoff(cw_min=2, cw_max=4096, r_up=2.0, r_down=2.0**0.5)
        assert p.next_window(1, BackoffState(window=100)) == 200
        assert p.next_window(0, BackoffState(window=100)) == int(100 / 2.0**0.5)
        # clamping at both ends
        assert p.next_window(1, BackoffState(window=4000)) == 4096
        assert p.next_window(0, BackoffState(window=2)) == 2

    def test_ebeb_halve_double(self):
        p = EbebBackoff(cw_min=2, cw_max=1024)
        assert p.next_window(1, BackoffState(window=64)) == 128
        assert p.next_window(0, BackoffState(window=64)) == 32

    def test_uniform_constant(self):
        p = UniformBackoff(window=16)
        assert p.initial_window() == 16
        for k in range(5):
            for w in (1, 16, 900):
                assert p.next_window(k, BackoffState(window=w)) == 16

    def test_uniform_window_within_bounds(self):
        for bad in (
            dict(window=1),  # below the default cw_min=2
            dict(window=5000),  # past the default cw_max=1024
            dict(window=16, cw_min=32, cw_max=64),
        ):
            with pytest.raises(ValueError, match="cw_min <= window <= cw_max"):
                make_policy("uniform", **bad)
        assert make_policy("uniform", window=1, cw_min=1).initial_window() == 1
        assert UniformBackoff(window=1024).initial_window() == 1024

    def test_asb_monotone_and_adaptive(self):
        p = AsbBackoff(cw_min=2, cw_max=4096, gamma=4.0)
        # idle channel: additive +-1 creep
        assert p.next_window(1, BackoffState(window=64, busy=0.0)) == 65
        assert p.next_window(0, BackoffState(window=64, busy=0.0)) == 63
        # saturated channel: full multiplicative factor 1 + gamma
        assert p.next_window(1, BackoffState(window=64, busy=1.0)) == 320
        assert p.next_window(0, BackoffState(window=64, busy=1.0)) == round(64 / 5)
        # monotone: failures never shrink, successes never grow
        for busy in (0.0, 0.3, 1.0):
            for w in (2, 10, 100):
                st = BackoffState(window=w, busy=busy)
                assert p.next_window(1, st) >= min(w + 1, 4096)
                assert p.next_window(0, st) <= max(w - 1, 2)


class TestContract:
    @pytest.mark.parametrize("name", sorted(BACKOFF_POLICIES))
    def test_bounds_and_purity(self, name):
        p = make_policy(name, cw_min=2, cw_max=512)
        rng = np.random.default_rng(7)
        assert 2 <= p.initial_window() <= 512 or isinstance(p, UniformBackoff)
        for _ in range(200):
            attempt = int(rng.integers(0, 12))
            state = BackoffState(
                window=int(rng.integers(1, 2000)), busy=float(rng.random())
            )
            w = p.next_window(attempt, state)
            assert isinstance(w, int)
            assert 2 <= w <= 512
            # purity: same inputs, same output
            assert p.next_window(attempt, state) == w

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            BackoffPolicy().next_window(0, BackoffState(window=2))
