"""Guided-wave signal features and the cumulative fatigue damage index.

Damage scatters guided waves, so a measured signal loses power and decorrelates
against the pristine baseline taken at zero cycles. Two per-channel features
capture that: the power ratio and Pearson's correlation against the baseline.
The target quantity is the cumulative damage fraction n/N.

``power_ratio`` and ``correlation_coefficient`` take one channel: two 1-D
sample arrays. Batching is private: ``_channel_features``, the per-record
kernel behind ``pipeline.build_feature_row``, takes both features of a
group of channels in one pass. Every reduction goes through ``_row_means``,
which gives, per row, the mean squares and the Pearson terms, each as
``np.mean`` would compute it, so a channel has the same bits either way.
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
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-D sample array")
    return x


def _require_finite(power, rows, name: str) -> None:
    """Raise unless every sample of ``rows`` is finite, given their mean squares.

    A NaN or infinite sample makes its row's mean square ``power``
    non-finite, so finite powers prove the samples finite. Only a non-finite
    power, which an overflowing finite sample also gives, needs a look at
    the samples themselves.
    """
    if not np.isfinite(power).all() and not all(np.isfinite(r).all() for r in rows):
        raise InvalidInputError(f"{name} contains non-finite samples")


# Rows are reduced in blocks of about this many bytes per stack. The block
# buffers stay small enough for the allocator to reuse from one call to the
# next; stack-sized arrays go back to the system after every call and are
# page-faulted in again on the next.
_BLOCK_BYTES = 64 * 1024


def _row_means(n: int, *stacks) -> np.ndarray:
    """Per-row means of one or two stacks of rows of ``n`` samples, in one blocked pass.

    A stack is a sequence of ``m`` rows: a 2-D array or a list of 1-D
    arrays. For one stack ``x``, returns the ``(1, m)`` array of
    ``mean(x²)``. For two stacks ``x`` and ``y``, returns the ``(5, m)``
    rows ``mean(x²)``, ``mean(y²)``, ``mean(dx²)``, ``mean(dy²)`` and
    ``mean(dx·dy)``, where ``dx = x - mean(x)`` and ``dy = y - mean(y)``
    row by row.

    Each block of rows is copied into a C-ordered buffer, allocated once per
    call, so no stack-sized array is made. Every mean is ``np.add.reduce``
    along a row followed by a division by ``n``: ``np.mean``'s own sum and
    division, without its wrapper. A row is reduced on its own, so its
    values do not depend on its block, its stack or its memory layout.
    """
    m, pair = len(stacks[0]), len(stacks) == 2
    step = max(1, _BLOCK_BYTES // (8 * n))
    size = min(step, m)
    sums = np.empty((5 if pair else 1, m))
    block = np.empty((len(stacks), size * n))
    prod = np.empty((len(stacks), size, n))
    centres = np.empty((2, size))
    for i in range(0, m, step):
        rows = slice(i, i + step)
        b = min(step, m - i)
        for j, stack in enumerate(stacks):
            np.concatenate(stack[rows], out=block[j, : b * n])
        v, sq = block[:, : b * n].reshape(-1, b, n), prod[:, :b]
        np.add.reduce(np.multiply(v, v, out=sq), axis=-1, out=sums[: len(stacks), rows])
        if not pair:
            continue
        c = centres[:, :b]
        np.true_divide(np.add.reduce(v, axis=-1, out=c), n, out=c)
        np.subtract(v, c[:, :, None], out=v)
        np.add.reduce(np.multiply(v, v, out=sq), axis=-1, out=sums[2:4, rows])
        np.add.reduce(np.multiply(v[0], v[1], out=sq[0]), axis=-1, out=sums[4, rows])
    return np.true_divide(sums, n, out=sums)


def _mean_square(x: np.ndarray, name: str) -> float:
    """``mean(x²)`` of a 1-D array of finite samples."""
    power = _row_means(x.size, [x])[0]
    _require_finite(power, [x], name)
    return power[0]


def _ratio(p_signal, p_base):
    """Power ratios, and where they are degenerate (a zero baseline power)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return p_signal / p_base, p_base == 0.0


def _correlation(var_x, var_y, cov):
    """Pearson correlations, and where they are degenerate (a zero variance)."""
    product = var_x * var_y
    # two tiny nonzero variances can multiply to 0; their roots do not
    scale = np.where(product < np.finfo(float).tiny, np.sqrt(var_x) * np.sqrt(var_y),
                     np.sqrt(product))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(cov / scale, -1.0, 1.0)
    return r, (var_x == 0.0) | (var_y == 0.0)


def _channel_features(signals, baselines) -> tuple[np.ndarray, np.ndarray]:
    """Power ratio and correlation of each pair of rows of two stacks.

    The per-record kernel of the feature step: ``signals`` and ``baselines``
    are equally long lists of 1-D arrays, all of one length. Both features
    come from one blocked pass of ``_row_means``, and each stack is checked
    once, the baselines first, from the powers that pass gives. Each row's
    values equal, bit for bit, those of ``power_ratio`` and
    ``correlation_coefficient`` on that pair alone, with NaN where those
    raise DegenerateBaselineError.
    """
    p_x, p_y, var_x, var_y, cov = _row_means(len(signals[0]), signals, baselines)
    _require_finite(p_y, baselines, "baseline")
    _require_finite(p_x, signals, "signal")
    ratio, dead = _ratio(p_x, p_y)
    r, flat = _correlation(var_x, var_y, cov)
    return np.where(dead, np.nan, ratio), np.where(flat, np.nan, r)


def power_ratio(signal, baseline) -> float:
    """Signal power divided by baseline power, for two 1-D sample arrays.

    A signal's power is its mean squared amplitude; the signal and the
    baseline may differ in length. The baseline is checked before the
    signal, and a zero baseline power raises DegenerateBaselineError.
    """
    p_base = _mean_square(_as_signal(baseline, "baseline"), "baseline")
    if p_base == 0.0:
        raise DegenerateBaselineError("baseline power is zero")
    p_signal = _mean_square(_as_signal(signal, "signal"), "signal")
    ratio, _ = _ratio(p_signal, p_base)
    return float(ratio)


def correlation_coefficient(signal, baseline) -> float:
    """Pearson correlation between a measurement and its baseline, in [-1, 1].

    Both are 1-D sample arrays of one length. A zero-variance signal or
    baseline raises DegenerateBaselineError.
    """
    x = _as_signal(signal, "signal")
    y = _as_signal(baseline, "baseline")
    if x.size != y.size:
        raise InvalidInputError(f"length mismatch: signal {x.size} vs baseline {y.size}")
    p_x, p_y, var_x, var_y, cov = _row_means(x.size, [x], [y])[:, 0]
    _require_finite(p_x, [x], "signal")
    _require_finite(p_y, [y], "baseline")
    r, flat = _correlation(var_x, var_y, cov)
    if flat:
        raise DegenerateBaselineError("zero-variance signal has no correlation")
    return float(r)


def miner_damage_index(cycles_endured: int, cycles_to_failure: int) -> float:
    """Cumulative damage fraction n/N: 0 pristine, 1 at expected failure."""
    n, big_n = cycles_endured, cycles_to_failure
    if big_n <= 0:
        raise InvalidInputError(f"cycles_to_failure must be positive, got {big_n!r}")
    if not (0 <= n <= big_n):
        raise InvalidInputError(f"cycles_endured must lie in [0, {big_n}], got {n!r}")
    # the quotient of the counts themselves: converting a huge count to float overflows
    return float(n / big_n)
