"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's
``--seed`` and nothing else, so one seed always gives the same inputs. None
of them calls ``maxentnn.evaluation``: a change to the experiment harness
cannot change a workload.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# wide tables: 1492 inspections x 530 features, 12 specimens
WIDE_ROWS = 1492
WIDE_COLS = 530
WIDE_GROUPS = 12
WIDE_LATENT = 5
WIDE_MAX_REPLICAS = 12
WIDE_FEATURE_NOISE = 0.002
WIDE_TARGET_NOISE = 0.02
WIDE_TARGET_COLUMNS = 15
HELDOUT_GROUPS = 1
HELDOUT_QUERIES = 2
# latent distance of the held-out specimen from the span of the others: far
# enough that every query extrapolates and its filter admits the whole table
# in the first round
HELDOUT_OFFSET = 2.0

# online: one base coupon and one new coupon per batch, inspected evenly
ONLINE_BATCHES = 3
ONLINE_BASE_RECORDS = 48
ONLINE_NEW_RECORDS = 24
ONLINE_SIGNAL_LENGTH = 256
ONLINE_DEAD_BASE_RECORDS = 4
N_CHANNELS = 252


@dataclass(frozen=True)
class WideTable:
    """A wide table cut into training rows and query rows.

    ``train_y`` and ``query_y`` are the damage-like targets in [0, 1].
    """

    train: np.ndarray
    train_y: np.ndarray
    queries: np.ndarray
    query_y: np.ndarray


def _wide_latents(rng: np.random.Generator, offset_groups=()):
    """Latent coordinates and group ids of the wide table.

    Each group is one specimen re-measured as it ages: a smooth curve in
    the latent space with inspection events along it, and each event is a
    bundle of 1 to ``WIDE_MAX_REPLICAS`` near-replicate rows. Bundle sizes
    vary, so no fixed neighbor count suits every query. Groups in
    ``offset_groups`` are moved ``HELDOUT_OFFSET`` along an extra latent
    axis that no other group uses.
    """
    sizes = [WIDE_ROWS // WIDE_GROUPS + (g < WIDE_ROWS % WIDE_GROUPS) for g in range(WIDE_GROUPS)]
    latents, groups = [], []
    for g, size in enumerate(sizes):
        start = rng.uniform(-1.0, 1.0, WIDE_LATENT)
        heading = rng.normal(size=WIDE_LATENT)
        heading *= 1.5 / np.linalg.norm(heading)
        bend = rng.normal(size=WIDE_LATENT)
        bend *= 0.4 / np.linalg.norm(bend)
        extra = HELDOUT_OFFSET if g in offset_groups else 0.0
        replicas = []
        while sum(replicas) < size:
            replicas.append(int(rng.integers(1, WIDE_MAX_REPLICAS + 1)))
        replicas[-1] -= sum(replicas) - size
        # events spread evenly along the curve, each jittered within its slot
        t = (np.arange(len(replicas)) + rng.uniform(0.25, 0.75, len(replicas))) / len(replicas)
        for ti, count in zip(t, replicas):
            center = start + ti * heading + math.sin(math.pi * ti) * bend
            latents.extend([np.append(center, extra)] * count)
        groups.extend([g] * size)
    return np.array(latents), np.array(groups)


def _wide_table(rng: np.random.Generator, offset_groups=()):
    z, groups = _wide_latents(rng, offset_groups)
    mix = rng.normal(size=(WIDE_LATENT + 1, WIDE_COLS)) / math.sqrt(WIDE_LATENT)
    x = z @ mix + WIDE_FEATURE_NOISE * rng.normal(size=(WIDE_ROWS, WIDE_COLS))
    # the target is a smooth function of the first columns as measured,
    # so replicates differ in target as they differ in features
    p = x[:, :WIDE_TARGET_COLUMNS]
    raw = sum(np.sin(5.0 * p[:, j] + 0.3 * j) for j in range(WIDE_TARGET_COLUMNS))
    raw += 0.8 * sum(p[:, j] * p[:, j + 1] for j in range(0, WIDE_TARGET_COLUMNS - 1, 2))
    raw += WIDE_TARGET_NOISE * rng.normal(size=WIDE_ROWS)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    return x, y, groups


def wide_heldout(rng: np.random.Generator) -> WideTable:
    """The wide table with whole specimens held out; a few of their rows query."""
    held = rng.choice(WIDE_GROUPS, size=HELDOUT_GROUPS, replace=False).tolist()
    x, y, groups = _wide_table(rng, offset_groups=held)
    out = np.isin(groups, held)
    picks = np.sort(rng.choice(np.flatnonzero(out), size=HELDOUT_QUERIES, replace=False))
    return WideTable(x[~out], y[~out], x[picks], y[picks])


def write_table_csv(path, features: np.ndarray, targets: np.ndarray | None) -> None:
    """Headered numeric CSV, ``x1..xN`` then ``D`` when ``targets`` are given."""
    header = [f"x{j}" for j in range(1, features.shape[1] + 1)]
    if targets is not None:
        header.append("D")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(features):
            cells = [repr(float(v)) for v in row]
            if targets is not None:
                cells.append(repr(float(targets[i])))
            writer.writerow(cells)


# ---------------------------------------------------------------- online


@dataclass(frozen=True)
class PlantedRecord:
    """A measurement record plus the feature values it was built to carry.

    ``power`` and ``corr`` hold the planted power ratio and correlation per
    channel, NaN where the channel's baseline is dead.
    """

    record: object
    power: np.ndarray
    corr: np.ndarray
    target: float


def _unit_zero_mean(v: np.ndarray) -> np.ndarray:
    """Rows centered and scaled to unit mean square."""
    v = v - v.mean(axis=-1, keepdims=True)
    return v / np.sqrt(np.mean(v * v, axis=-1, keepdims=True))


def planted_signals(rng: np.random.Generator, baselines: np.ndarray, p: np.ndarray, r: np.ndarray):
    """Signals whose power ratio and Pearson correlation to ``baselines`` are ``p`` and ``r``.

    With ``b`` and ``o`` zero-mean, of unit mean square and orthogonal,
    ``s = sqrt(p) * (r * b + sqrt(1 - r^2) * o)`` has mean square ``p`` and
    correlation ``r`` with ``b``. ``baselines`` must already be zero-mean
    with unit mean square.
    """
    o = rng.normal(size=baselines.shape)
    o -= o.mean(axis=-1, keepdims=True)
    o -= np.sum(o * baselines, axis=-1, keepdims=True) / baselines.shape[-1] * baselines
    o = _unit_zero_mean(o)
    return np.sqrt(p)[:, None] * (r[:, None] * baselines + np.sqrt(1.0 - r * r)[:, None] * o)


@dataclass(frozen=True)
class OnlineInputs:
    base: list
    stream: list
    failure_cycles: dict


def online_records(rng: np.random.Generator) -> OnlineInputs:
    """Inspection records of fatiguing coupons with planted channel features.

    Each channel loses power and decorrelates from its baseline as damage
    n/N grows, at a channel-specific rate shared by all coupons and scaled
    by two sensitivities per batch, one for power and one for correlation.
    Each batch has one base coupon; a new coupon shares its batch's layup
    and sensitivities but has its own baselines and failure life. A few
    base records have one dead (all-zero) baseline, which the pipeline must
    mask and impute.
    """
    from maxentnn.pipeline import ChannelMeasurement, Condition, MeasurementRecord

    decay = rng.uniform(0.3, 1.5, N_CHANNELS)
    decorrelate = rng.uniform(0.2, 0.8, N_CHANNELS)
    batches = [(b % 3 + 1, *rng.uniform(0.9, 1.1, 2)) for b in range(ONLINE_BATCHES)]
    coupon_batches = batches + batches
    n_base = ONLINE_BATCHES * ONLINE_BASE_RECORDS
    dead_records = set(rng.choice(n_base, size=ONLINE_DEAD_BASE_RECORDS, replace=False).tolist())
    failure_cycles, records = {}, []
    for k, (layup, power_sensitivity, corr_sensitivity) in enumerate(coupon_batches):
        coupon = f"C{k + 1:02d}"
        failure_cycles[coupon] = int(rng.integers(150_000, 400_000))
        baselines = _unit_zero_mean(rng.normal(size=(N_CHANNELS, ONLINE_SIGNAL_LENGTH)))
        # inspections evenly spread over life; each of a new coupon's falls
        # midway between two of its base coupon's
        count = ONLINE_BASE_RECORDS if k < ONLINE_BATCHES else ONLINE_NEW_RECORDS
        for fraction in (np.arange(count) + 0.5) / count:
            cycles = int(round(fraction * failure_cycles[coupon]))
            damage = cycles / failure_cycles[coupon]
            power = np.exp(-power_sensitivity * decay * damage)
            corr = 1.0 - corr_sensitivity * decorrelate * damage
            signals = planted_signals(rng, baselines, power, corr)
            record_baselines = baselines
            if len(records) in dead_records:
                dead = int(rng.integers(N_CHANNELS))
                record_baselines = baselines.copy()
                record_baselines[dead] = 0.0
                power[dead] = corr[dead] = np.nan
            channels = tuple(ChannelMeasurement(c + 1, signals[c], record_baselines[c])
                             for c in range(N_CHANNELS))
            record = MeasurementRecord(coupon, layup, cycles, Condition.TRACTION_FREE, 0.0, channels)
            records.append(PlantedRecord(record, power, corr, damage))
    return OnlineInputs(records[:n_base], records[n_base:], failure_cycles)
