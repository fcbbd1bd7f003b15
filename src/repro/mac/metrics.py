"""MAC-run metrics: fairness, delay percentiles, energy, and the static link.

The headline statistic of the ``mac_contention`` experiment lives here:
the Spearman rank correlation between the paper's *static* per-node
interference ``I(v)`` and the *dynamic* per-node collision rate a MAC
run actually measured. A positive, significant correlation is the
empirical form of "the receiver-centric measure predicts contention".
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.interference.receiver import node_interference
from repro.mac.engine import MacResult
from repro.model.topology import Topology


def transmit_energy(topology: Topology, attempts, *, alpha: float = 2.0) -> float:
    """Total radiated energy: each attempt by ``u`` costs ``r_u ** alpha``."""
    attempts = np.asarray(attempts, dtype=np.float64)
    if attempts.shape != (topology.n,):
        raise ValueError("attempts must have one entry per node")
    if np.any(attempts < 0):
        raise ValueError("attempts must be non-negative")
    return float(np.sum(attempts * topology.radii**alpha))


def collision_interference_correlation(
    topology: Topology, collision_rate, *, method: str = "spearman"
) -> tuple[float, float]:
    """Correlation between static ``I(v)`` and observed collision rates.

    NaN collision entries (nodes never addressed) are dropped. Returns
    ``(correlation, p_value)``. Degenerate inputs (constant vectors or
    fewer than 3 valid points) return ``(nan, nan)``.
    """
    if method not in ("spearman", "pearson"):
        raise ValueError(f"unknown method {method!r}")
    rates = np.asarray(collision_rate, dtype=np.float64)
    if rates.shape != (topology.n,):
        raise ValueError("collision_rate must have one entry per node")
    ivec = node_interference(topology).astype(np.float64)
    valid = ~np.isnan(rates)
    x, y = ivec[valid], rates[valid]
    if x.size < 3 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return (float("nan"), float("nan"))
    if method == "spearman":
        r, p = stats.spearmanr(x, y)
    else:
        r, p = stats.pearsonr(x, y)
    return float(r), float(p)


def jain_fairness(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` over the
    non-NaN entries; 1 is perfectly fair, ``1/n`` maximally unfair.
    NaN when nothing valid or all-zero."""
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    if x.size == 0 or np.any(x < 0):
        return float("nan")
    sq = float(np.sum(x * x))
    if sq == 0.0:
        return float("nan")
    return float(np.sum(x)) ** 2 / (x.size * sq)


def interference_collision_spearman(
    topology: Topology, result: MacResult
) -> tuple[float, float]:
    """Spearman rank correlation of static ``I(v)`` vs the run's measured
    per-receiver collision rate. Returns ``(rho, p_value)``; degenerate
    inputs give ``(nan, nan)`` (see
    :func:`collision_interference_correlation`)."""
    return collision_interference_correlation(
        topology, result.collision_rate, method="spearman"
    )


def summarize(topology: Topology, result: MacResult) -> dict:
    """Strict-JSON scalar summary of one run (the experiment row shape)."""
    rho, pval = interference_collision_spearman(topology, result)
    pooled = result.delay_percentiles()
    return {
        "n": int(topology.n),
        "n_slots": int(result.n_slots),
        "arrivals": int(result.arrivals.sum()),
        "delivered": int(result.delivered.sum()),
        "dropped_queue": int(result.dropped_queue.sum()),
        "dropped_retry": int(result.dropped_retry.sum()),
        "lost": int(result.lost.sum()),
        "attempts": int(result.attempts.sum()),
        "retransmissions": int(result.retransmissions.sum()),
        "deferrals": int(result.deferrals.sum()),
        "collisions": int(result.rx_collision.sum()),
        "throughput": float(result.throughput.sum()),
        "offered": float(result.offered.sum()),
        "mean_collision_rate": _nan_to_none(
            float(np.nanmean(result.collision_rate))
            if np.any(~np.isnan(result.collision_rate))
            else float("nan")
        ),
        "fairness": _nan_to_none(jain_fairness(result.throughput)),
        "delay_p50": _nan_to_none(pooled["p50"]),
        "delay_p95": _nan_to_none(pooled["p95"]),
        "delay_p99": _nan_to_none(pooled["p99"]),
        "spearman_rho": _nan_to_none(rho),
        "spearman_p": _nan_to_none(pval),
        "conservation_ok": bool(result.conservation_ok),
    }


def _nan_to_none(x: float):
    """Strict JSON has no NaN; degenerate statistics serialize as null."""
    return None if isinstance(x, float) and np.isnan(x) else x
