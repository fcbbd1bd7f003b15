"""The backoff-policy zoo: pluggable contention-window update rules.

A backoff policy answers one question: *given how the last attempt went,
how large should the next contention window be?* The MAC engines
(:mod:`repro.mac.saturated`, :mod:`repro.mac.engine`) draw the actual
wait uniformly from ``[0, window)`` — the policy itself is a **pure**
function of its inputs and owns no random state, so two engines running
the same policy from the same seed are bitwise identical.

Contract
--------
``next_window(attempt, state) -> int`` where

- ``attempt`` is the number of *consecutive failed* transmissions of the
  current head-of-line packet: ``0`` means the last attempt succeeded
  (the decrease/reset direction), ``k >= 1`` means the packet has now
  failed ``k`` times in a row (the increase direction);
- ``state`` is a :class:`BackoffState` carrying the window the policy
  returned last time and a channel-busy estimate in ``[0, 1]`` (the
  adaptive input of ASB; the other policies ignore it).

The returned window is always clamped to ``[cw_min, cw_max]``. Policies
are frozen keyword-only dataclasses, so configurations hash, compare and
serialize cleanly through the sweep runner.

The family ported here (BEB, EIED, Fibonacci/EFB, EBEB, ASB) is the
backoff-strategy zoo of the LoRaWAN contention simulations referenced in
SNIPPETS.md, re-expressed as pure update rules.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BACKOFF_POLICIES",
    "BackoffPolicy",
    "BackoffState",
    "UniformBackoff",
    "BebBackoff",
    "EiedBackoff",
    "FibonacciBackoff",
    "EbebBackoff",
    "AsbBackoff",
    "make_policy",
    "registered_policies",
]


@dataclass(frozen=True)
class BackoffState:
    """Engine-side inputs to a window update.

    ``window`` is the contention window currently in force (the value the
    policy returned last, or ``initial_window()`` for a fresh node).
    ``busy`` is the node's channel-busy estimate in ``[0, 1]`` — an EWMA
    of "some other transmitter covered me this slot" maintained by the
    engine; only adaptive policies read it.
    """

    window: int
    busy: float = 0.0


@dataclass(frozen=True, kw_only=True)
class BackoffPolicy:
    """Base class: window bounds, clamping, and the pure update contract."""

    cw_min: int = 2
    cw_max: int = 1024

    def __post_init__(self):
        if not 1 <= self.cw_min <= self.cw_max:
            raise ValueError("need 1 <= cw_min <= cw_max")

    @property
    def name(self) -> str:
        """Registry name of this policy (class attribute ``_name``)."""
        return getattr(type(self), "_name", type(self).__name__)

    def initial_window(self) -> int:
        return self.cw_min

    def next_window(self, attempt: int, state: BackoffState) -> int:
        raise NotImplementedError

    def _clamp(self, window: float) -> int:
        return int(min(max(int(window), self.cw_min), self.cw_max))


@dataclass(frozen=True, kw_only=True)
class UniformBackoff(BackoffPolicy):
    """Fixed window: every wait is uniform over the same ``[0, window)``.

    The no-memory baseline of the zoo (the LoRaWAN scripts' default when
    all strategy flags are off, window 16). The window must itself lie
    in ``[cw_min, cw_max]``; a window of 1 (transmit in the first slot a
    packet is ready) needs ``cw_min=1``.
    """

    _name = "uniform"
    window: int = 16

    def __post_init__(self):
        super().__post_init__()
        if not self.cw_min <= self.window <= self.cw_max:
            raise ValueError("need cw_min <= window <= cw_max")

    def initial_window(self) -> int:
        return self.window

    def next_window(self, attempt: int, state: BackoffState) -> int:
        return self.window


@dataclass(frozen=True, kw_only=True)
class BebBackoff(BackoffPolicy):
    """Binary exponential backoff: ``min(cw_min * 2**k, cw_max)``.

    The classic 802.x rule — double on every consecutive failure, reset
    to ``cw_min`` on success. Stateless given the failure streak, so the
    closed form is exact.
    """

    _name = "beb"

    def next_window(self, attempt: int, state: BackoffState) -> int:
        if attempt == 0:
            return self.cw_min
        # 2**attempt can overflow no int here (python ints), but cap the
        # exponent so pathological streaks stay O(1)
        exponent = min(attempt, (self.cw_max // max(self.cw_min, 1)).bit_length())
        return self._clamp(self.cw_min * (1 << exponent))


@dataclass(frozen=True, kw_only=True)
class EiedBackoff(BackoffPolicy):
    """Exponential increase / exponential decrease.

    Failure multiplies the window by ``r_up``; success *divides* it by
    ``r_down`` instead of resetting — the window remembers recent
    congestion across packets. The LoRaWAN family uses ``r_up = 2``,
    ``r_down = sqrt(2)``.
    """

    _name = "eied"
    r_up: float = 2.0
    r_down: float = 2.0**0.5

    def __post_init__(self):
        super().__post_init__()
        if self.r_up <= 1.0 or self.r_down <= 1.0:
            raise ValueError("r_up and r_down must exceed 1")

    def next_window(self, attempt: int, state: BackoffState) -> int:
        if attempt == 0:
            return self._clamp(state.window / self.r_down)
        return self._clamp(state.window * self.r_up)


def _next_fibonacci(n: int) -> int:
    """Smallest Fibonacci number strictly greater than ``n``."""
    a, b = 1, 1
    while b <= n:
        a, b = b, a + b
    return b


def _prev_fibonacci(n: int) -> int:
    """Largest Fibonacci number strictly smaller than ``n`` (min 1)."""
    a, b = 1, 1
    while b < n:
        a, b = b, a + b
    return max(a, 1)


@dataclass(frozen=True, kw_only=True)
class FibonacciBackoff(BackoffPolicy):
    """Enhanced Fibonacci backoff (EFB): walk the Fibonacci sequence.

    Failure advances the window to the next Fibonacci number, success
    retreats to the previous one — growth ratio tends to the golden
    ratio phi ~ 1.618, gentler than BEB's 2 but still exponential.
    Exact integer Fibonacci (no float approximation).
    """

    _name = "fibonacci"

    def next_window(self, attempt: int, state: BackoffState) -> int:
        if attempt == 0:
            return self._clamp(_prev_fibonacci(state.window))
        return self._clamp(_next_fibonacci(state.window))


@dataclass(frozen=True, kw_only=True)
class EbebBackoff(BackoffPolicy):
    """Enhanced BEB: double on failure, *halve* (not reset) on success.

    Keeps congestion memory like EIED but with symmetric powers of two;
    equivalently EIED with ``r_up = r_down = 2``.
    """

    _name = "ebeb"

    def next_window(self, attempt: int, state: BackoffState) -> int:
        if attempt == 0:
            return self._clamp(state.window // 2)
        return self._clamp(state.window * 2)


@dataclass(frozen=True, kw_only=True)
class AsbBackoff(BackoffPolicy):
    """Adaptively scaled backoff: the step size tracks observed load.

    The multiplicative factor is ``s = 1 + gamma * busy`` where ``busy``
    is the engine's channel-busy EWMA: on an idle channel the window
    creeps by ±1 (additive), under saturation it moves by the full
    ``1 + gamma`` factor. Movement is guaranteed monotone — a failure
    never shrinks the window, a success never grows it.
    """

    _name = "asb"
    gamma: float = 4.0

    def __post_init__(self):
        super().__post_init__()
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def next_window(self, attempt: int, state: BackoffState) -> int:
        busy = min(max(float(state.busy), 0.0), 1.0)
        scale = 1.0 + self.gamma * busy
        if attempt == 0:
            return self._clamp(min(state.window - 1, round(state.window / scale)))
        return self._clamp(max(state.window + 1, round(state.window * scale)))


#: Registry: policy name -> frozen kw-only config class. The MAC engines,
#: the ``mac_contention`` experiment and the CLI resolve names here.
BACKOFF_POLICIES: dict[str, type[BackoffPolicy]] = {
    cls._name: cls
    for cls in (
        UniformBackoff,
        BebBackoff,
        EiedBackoff,
        FibonacciBackoff,
        EbebBackoff,
        AsbBackoff,
    )
}


def registered_policies() -> tuple[str, ...]:
    """Registered backoff-policy names, sorted."""
    return tuple(sorted(BACKOFF_POLICIES))


def make_policy(policy: str | BackoffPolicy, **kwargs) -> BackoffPolicy:
    """Resolve ``policy`` to a configured instance.

    A :class:`BackoffPolicy` instance passes through unchanged (extra
    kwargs are then rejected); a string is looked up in
    :data:`BACKOFF_POLICIES` and constructed with ``kwargs``.
    """
    if isinstance(policy, BackoffPolicy):
        if kwargs:
            raise TypeError("kwargs only apply when policy is a name")
        return policy
    try:
        cls = BACKOFF_POLICIES[policy]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backoff policy {policy!r}; known: {registered_policies()}"
        ) from None
    return cls(**kwargs)
