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
]


def _as_signal(samples, name: str) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise InvalidInputError(f"{name} must be a nonempty (..., n) sample array")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite samples")
    # C order, so each row is summed as the same samples in a 1-D array are
    return np.ascontiguousarray(x)


# Samples reduced at a time. A block's temporaries stay small enough for the
# allocator to reuse from one block and one call to the next; stack-sized
# ones go back to the system after every call and are page-faulted in again
# on the next.
_BLOCK_BYTES = 64 * 1024


def _by_row_blocks(kernel, *arrays):
    """``kernel`` applied to blocks of rows of (..., n) arrays of one shape.

    Each row is reduced on its own, so its result does not depend on the
    block it falls in. Returns each of the kernel's per-row results in the
    arrays' leading shape.
    """
    lead, n = arrays[0].shape[:-1], arrays[0].shape[-1]
    rows = [a.reshape(-1, n) for a in arrays]
    step = max(1, _BLOCK_BYTES // (arrays[0].itemsize * n))
    blocks = [kernel(*(r[i : i + step] for r in rows))
              for i in range(0, len(rows[0]) or 1, step)]
    return tuple(np.concatenate(parts).reshape(lead) for parts in zip(*blocks))


def _mean_square(x):
    return (np.mean(x * x, axis=-1),)


def _pearson_terms(x, y):
    dx = x - x.mean(axis=-1, keepdims=True)
    dy = y - y.mean(axis=-1, keepdims=True)
    return np.mean(dx * dx, axis=-1), np.mean(dy * dy, axis=-1), np.mean(dx * dy, axis=-1)


def _pair_or_stack(values: np.ndarray, degenerate: np.ndarray, message: str):
    """A float for one pair, raising on a degenerate one; else NaN where degenerate."""
    if values.ndim == 0:
        if degenerate:
            raise DegenerateBaselineError(message)
        return float(values)
    return np.where(degenerate, np.nan, values)


def power_ratio(signal, baseline) -> float | np.ndarray:
    """Signal power divided by baseline power, along the last axis.

    A signal's power is its mean squared amplitude; the signal and the
    baseline may differ in length. The baseline is checked before the
    signal. For two 1-D arrays the result is a float, and a zero baseline
    power raises DegenerateBaselineError. Stacked ``(..., n)`` inputs
    broadcast over their leading axes and give an array that is NaN wherever
    the baseline power is zero.
    """
    y = _as_signal(baseline, "baseline")
    (p_base,) = _by_row_blocks(_mean_square, y)
    if p_base.ndim == 0 and np.ndim(signal) <= 1 and p_base == 0.0:
        raise DegenerateBaselineError("baseline power is zero")
    (p_signal,) = _by_row_blocks(_mean_square, _as_signal(signal, "signal"))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_signal / p_base
    return _pair_or_stack(ratio, p_base == 0.0, "baseline power is zero")


def correlation_coefficient(signal, baseline) -> float | np.ndarray:
    """Pearson correlation between a measurement and its baseline, in [-1, 1].

    Reduces along the last axis, which must have the same length in both.
    For two 1-D arrays the result is a float, and a zero-variance signal or
    baseline raises DegenerateBaselineError. Stacked ``(..., n)`` inputs
    broadcast over their leading axes and give an array that is NaN wherever
    either variance is zero.
    """
    x = _as_signal(signal, "signal")
    y = _as_signal(baseline, "baseline")
    if x.shape[-1] != y.shape[-1]:
        raise InvalidInputError(
            f"length mismatch: signal {x.shape[-1]} vs baseline {y.shape[-1]}"
        )
    var_x, var_y, cov = _by_row_blocks(_pearson_terms, *np.broadcast_arrays(x, y))
    product = var_x * var_y
    # two tiny nonzero variances can multiply to 0; their roots do not
    scale = np.where(product < np.finfo(float).tiny, np.sqrt(var_x) * np.sqrt(var_y),
                     np.sqrt(product))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(cov / scale, -1.0, 1.0)
    return _pair_or_stack(r, (var_x == 0.0) | (var_y == 0.0),
                          "zero-variance signal has no correlation")


def miner_damage_index(cycles_endured: int, cycles_to_failure: int) -> float:
    """Cumulative damage fraction n/N: 0 pristine, 1 at expected failure."""
    n, big_n = cycles_endured, cycles_to_failure
    if big_n <= 0:
        raise InvalidInputError(f"cycles_to_failure must be positive, got {big_n!r}")
    if not (0 <= n <= big_n):
        raise InvalidInputError(f"cycles_endured must lie in [0, {big_n}], got {n!r}")
    return float(n) / float(big_n)
