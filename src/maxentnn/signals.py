"""Guided-wave signal features and the cumulative fatigue damage index.

Damage scatters guided waves, so a measured signal loses power and decorrelates
against the pristine baseline taken at zero cycles. Two per-channel features
capture that: the power ratio and Pearson's correlation against the baseline.
The target quantity is the cumulative damage fraction n/N.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBaselineError, InvalidInputError

__all__ = [
    "power_ratio",
    "correlation_coefficient",
    "miner_damage_index",
    "miner_damage_total",
]


def _as_signal(samples, name: str) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-D sample array")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite samples")
    return x


def power_ratio(signal, baseline) -> float:
    """Signal power divided by baseline power.

    A signal's power is its mean squared amplitude. The baseline is checked,
    and a zero baseline power rejected, before the signal is checked.
    """
    y = _as_signal(baseline, "baseline")
    p_base = float(np.mean(y * y))
    if p_base == 0.0:
        raise DegenerateBaselineError("baseline power is zero")
    x = _as_signal(signal, "signal")
    return float(np.mean(x * x)) / p_base


def correlation_coefficient(signal, baseline) -> float:
    """Pearson correlation between a measurement and its baseline, in [-1, 1]."""
    x = _as_signal(signal, "signal")
    y = _as_signal(baseline, "baseline")
    if x.size != y.size:
        raise InvalidInputError(f"length mismatch: signal {x.size} vs baseline {y.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(np.mean(dx * dx))
    var_y = float(np.mean(dy * dy))
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateBaselineError("zero-variance signal has no correlation")
    r = float(np.mean(dx * dy)) / np.sqrt(var_x * var_y)
    return float(min(1.0, max(-1.0, r)))


def miner_damage_index(cycles_endured: int, cycles_to_failure: int) -> float:
    """Cumulative damage fraction n/N: 0 pristine, 1 at expected failure."""
    n, big_n = cycles_endured, cycles_to_failure
    if big_n <= 0:
        raise InvalidInputError(f"cycles_to_failure must be positive, got {big_n!r}")
    if not (0 <= n <= big_n):
        raise InvalidInputError(f"cycles_endured must lie in [0, {big_n}], got {n!r}")
    return float(n) / float(big_n)


def miner_damage_total(states) -> float:
    """Sum of per-frequency damage fractions for a multi-frequency history."""
    return float(sum(miner_damage_index(n, big_n) for n, big_n in states))
