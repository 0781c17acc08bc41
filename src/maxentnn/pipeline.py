"""Feature assembly, table loading, scaling and append-only online serving.

A measurement record (one inspection of one coupon) is turned into a fixed
530-column feature row: 252 power ratios, 252 correlation coefficients, the
18 laminate stiffness terms, 4 one-hot condition flags, 3 one-hot layup
flags and the applied load. The target is the damage fraction n/N. Dead or
absent channels become missing cells, which are NaN and nothing else, and
are median-imputed before scaling, so one bad sensor path never discards a
record.
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import Dataset, MaxEntParams, Prediction, predict_point
from .errors import IngestionError, InvalidInputError
from .laminate import STIFFNESS_COLUMNS, abd_matrices, standard_layups, stiffness_feature_row
from .signals import _channel_features, miner_damage_index
# not called here; imported for perfbench/tracing.py, which wraps them as attributes of this module
from .signals import correlation_coefficient, power_ratio  # noqa: F401

__all__ = [
    "N_CHANNELS",
    "Condition",
    "ChannelMeasurement",
    "MeasurementRecord",
    "FEATURE_COLUMNS",
    "TABLE_COLUMNS",
    "TARGET_COLUMN",
    "build_feature_row",
    "FeatureTable",
    "read_numeric_csv",
    "read_records",
    "write_records",
    "ImputerSpec",
    "fit_imputer",
    "apply_imputer",
    "ScalerSpec",
    "fit_scaler",
    "apply_scaler",
    "OnlineStore",
]

N_CHANNELS = 252


class Condition(enum.IntEnum):
    """Measurement context, in the order of the one-hot encoding."""

    BASELINE = 0
    CLAMPED = 1
    TRACTION_FREE = 2
    LOADED = 3


_CONDITION_NAMES = {c.name.lower(): c for c in Condition}


@dataclass(frozen=True)
class ChannelMeasurement:
    """One sensing path at one excitation frequency: signal plus an equally long baseline."""

    channel_id: int
    signal: np.ndarray
    baseline: np.ndarray

    def __post_init__(self):
        if not (1 <= int(self.channel_id) <= N_CHANNELS):
            raise IngestionError(f"channel id must lie in 1..{N_CHANNELS}, got {self.channel_id!r}")
        for name in ("signal", "baseline"):
            # a view, so freezing it leaves the caller's own array writeable
            x = np.asarray(getattr(self, name), dtype=float).view()
            if x.ndim != 1 or x.size < 2:
                raise IngestionError(f"channel {self.channel_id}: {name} needs at least 2 samples")
            if not np.all(np.isfinite(x)):
                raise IngestionError(f"channel {self.channel_id}: {name} has non-finite samples")
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        if self.signal.size != self.baseline.size:
            raise IngestionError(
                f"channel {self.channel_id}: signal has {self.signal.size} samples "
                f"but baseline has {self.baseline.size}"
            )
        object.__setattr__(self, "channel_id", int(self.channel_id))


@dataclass(frozen=True)
class MeasurementRecord:
    """One inspection of one coupon: metadata plus up to 252 channels."""

    coupon_id: str
    layup_id: int
    cycles: int
    condition: Condition
    load: float = 0.0
    channels: tuple = ()

    def __post_init__(self):
        if self.cycles < 0:
            raise IngestionError(f"cycles must be >= 0, got {self.cycles!r}")
        if not isinstance(self.condition, Condition):
            raise IngestionError(f"condition must be a Condition, got {self.condition!r}")
        if self.condition is not Condition.LOADED and self.load != 0.0:
            raise IngestionError("load must be 0 unless the condition is 'loaded'")
        if self.load < 0 or not math.isfinite(self.load):
            raise IngestionError(f"load must be finite and >= 0, got {self.load!r}")
        seen = set()
        for ch in self.channels:
            if ch.channel_id in seen:
                raise IngestionError(f"duplicate channel id {ch.channel_id}")
            seen.add(ch.channel_id)
        object.__setattr__(self, "channels", tuple(self.channels))


# layup ids with a one-hot column; a custom catalog may hold no other id
_LAYUP_IDS = (1, 2, 3)


def _build_columns() -> tuple:
    cols = [f"pw_c{i}" for i in range(1, N_CHANNELS + 1)]
    cols += [f"cc_c{i}" for i in range(1, N_CHANNELS + 1)]
    cols += list(STIFFNESS_COLUMNS)
    cols += [f"condition_{i}" for i in range(4)]
    cols += [f"layup_{i}" for i in _LAYUP_IDS]
    cols.append("load")
    return tuple(cols)


FEATURE_COLUMNS = _build_columns()
TARGET_COLUMN = "D"
TABLE_COLUMNS = FEATURE_COLUMNS + (TARGET_COLUMN,)

_N_FEATURES = len(FEATURE_COLUMNS)  # 530


_STANDARD_LAYUPS = standard_layups()


@functools.lru_cache(maxsize=16)
def _stiffness_row(layup) -> np.ndarray:
    """The 18 stiffness terms of a layup, computed once and kept read-only."""
    row = stiffness_feature_row(abd_matrices(layup))
    row.setflags(write=False)
    return row


def build_feature_row(record, layups=None, failure_cycles=None):
    """Turn one record into (features, mask, target).

    ``layups`` maps layup id -> Layup (defaults to the three coupon stacks;
    a record's id must lie in 1..3, the one-hot layup columns) and
    ``failure_cycles`` maps coupon id -> cycles at failure. Returns the
    530-wide feature vector, whose missing cells (absent channels, dead
    baselines) are NaN, the boolean mask ``np.isnan(features)`` and the
    damage-fraction target.
    """
    if layups is None:
        layups = _STANDARD_LAYUPS
    if failure_cycles is None or record.coupon_id not in failure_cycles:
        raise IngestionError(f"unknown coupon {record.coupon_id!r}: no failure cycle count")
    if record.layup_id not in layups:
        raise IngestionError(f"unknown layup id {record.layup_id!r}")
    if record.layup_id not in _LAYUP_IDS:
        raise IngestionError(f"layup id {record.layup_id!r} has no one-hot column (ids 1..3)")

    # absent channels and dead baselines stay NaN
    features = np.full(_N_FEATURES, np.nan)

    # one kernel call per sample count: a record's channels normally share one
    groups = {}
    for ch in record.channels:
        groups.setdefault(ch.signal.size, []).append(ch)
    for channels in groups.values():
        cols = np.array([ch.channel_id - 1 for ch in channels])
        features[cols], features[N_CHANNELS + cols] = _channel_features(
            [ch.signal for ch in channels], [ch.baseline for ch in channels])

    base = 2 * N_CHANNELS
    features[base : base + 18] = _stiffness_row(layups[record.layup_id])

    base += 18
    features[base : base + 4] = 0.0
    features[base + int(record.condition)] = 1.0

    base += 4
    features[base : base + 3] = 0.0
    features[base + record.layup_id - 1] = 1.0

    features[-1] = record.load

    target = miner_damage_index(record.cycles, failure_cycles[record.coupon_id])
    return features, np.isnan(features), target


@dataclass
class FeatureTable:
    """A feature matrix and its damage targets; a NaN cell is a missing one.

    NaN is the only marker of a missing cell, so an infinite cell is
    rejected rather than read as either a value or a gap.
    """

    rows: np.ndarray
    targets: np.ndarray
    columns: tuple = FEATURE_COLUMNS

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise IngestionError(
                f"feature rows must be (m, {len(self.columns)}), got {self.rows.shape}"
            )
        if np.isinf(self.rows).any():
            raise IngestionError("infinite feature value; only NaN marks a missing cell")
        if self.targets.shape != (self.rows.shape[0],):
            raise IngestionError("targets must be one value per row")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_records(cls, records, layups=None, failure_cycles=None) -> "FeatureTable":
        triples = [build_feature_row(r, layups, failure_cycles) for r in records]
        if not triples:
            return cls(np.zeros((0, _N_FEATURES)), np.zeros(0))
        rows = np.stack([t[0] for t in triples])
        targets = np.array([t[2] for t in triples])
        return cls(rows, targets)

    def to_csv(self, path) -> None:
        """Write the canonical header plus one row per record; missing cells are empty."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(self.columns) + [TARGET_COLUMN])
            for row, target in zip(self.rows, self.targets):
                cells = ["" if math.isnan(v) else repr(v) for v in row.tolist()]
                cells.append(repr(float(target)))
                writer.writerow(cells)

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read a numeric table whose last column is the target ``D``.

        The other header names become ``columns``; empty cells are missing (NaN).
        """
        header, data = read_numeric_csv(path)
        if header[-1:] != [TARGET_COLUMN]:
            raise IngestionError(
                f"{path}: header mismatch: the last column must be the target "
                f"{TARGET_COLUMN!r}, got {header[-1:]}"
            )
        targets = data[:, -1]
        outside = ~((targets >= 0.0) & (targets <= 1.0))
        if outside.any():
            i = int(np.argmax(outside))
            raise IngestionError(
                f"{path}:{i + 2}: damage fraction must lie in [0, 1], got {targets[i]}"
            )
        return cls(data[:, :-1], targets, tuple(header[:-1]))


def _loadtxt_records(path, lines, n_columns: int, blanks: list):
    """The body's records as lines ``np.loadtxt`` reads to the cells ``csv`` reads.

    Each empty cell becomes ``nan``, and each record's count of them is
    appended to ``blanks``. A record with a quote, whose cells may hold
    commas or run over more lines, is split by ``csv`` and written back
    with every cell quoted. A blank line or a record without ``n_columns``
    cells raises an IngestionError naming its line.
    """
    for lineno, line in enumerate(lines, start=2):
        n, blank = line.count(",") + 1, 0
        if '"' in line:
            cells = next(csv.reader(itertools.chain([line], lines)))
            n, blank = len(cells), cells.count("")
            line = '"' + '","'.join([c.replace('"', '""') or "nan" for c in cells]) + '"'
        elif line.isspace():
            n = 0
        # the substring tests spare the split on a line with no empty cell
        elif ",," in line or line.startswith(",") or line.endswith((",", ",\n", ",\r", ",\r\n")):
            cells = line.rstrip("\r\n").split(",")
            blank = cells.count("")
            line = ",".join([c or "nan" for c in cells])
        if n != n_columns:
            raise IngestionError(f"{path}:{lineno}: expected {n_columns} cells")
        blanks.append(blank)
        yield line


def read_numeric_csv(path):
    """Header and float matrix of a headered numeric CSV.

    Empty cells become NaN (missing). Any other cell must be a finite
    number in numpy's float grammar: text such as ``abc``, ``inf``,
    ``nan``, ``1_0`` or a non-ASCII digit raises an IngestionError naming
    its line. Lines are numbered by record, the header being line 1.

    The body is parsed in one ``np.loadtxt`` pass, whose lines are
    rewritten on the way only where a cell is empty or quoted.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        first = next(fh, None)
        if first is None:  # np.loadtxt would warn that the input held no data
            return header, np.zeros((0, len(header)))
        blanks = []
        records = _loadtxt_records(path, itertools.chain([first], fh), len(header), blanks)
        try:
            data = np.loadtxt(records, delimiter=",", comments=None, ndmin=2, quotechar='"')
        except ValueError as exc:
            # numpy names a cell it cannot read by its 0-based row and 1-based column
            cell = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc), re.DOTALL)
            if cell is None:
                raise IngestionError(f"{path}: {exc}") from None
            raise IngestionError(
                f"{path}:{int(cell[2]) + 2}: {cell[1]} in column {cell[3]}") from None
    # a NaN that is not an empty field came from text such as "nan"
    non_finite = np.isinf(data).any(axis=1) | (np.isnan(data).sum(axis=1) != blanks)
    if non_finite.any():
        raise IngestionError(
            f"{path}:{int(np.argmax(non_finite)) + 2}: non-finite number; "
            "only empty fields mark missing cells"
        )
    return header, data


def _integer_field(value, name: str) -> int:
    """``value`` as an int; a fractional number is rejected, not truncated,
    and so are JSON ``true``/``false`` and strings, which are not numbers."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise IngestionError(f"malformed record: {name} {value!r} is not an integer")
    return int(value)


def _record_from_json(obj: dict) -> MeasurementRecord:
    try:
        cond = _CONDITION_NAMES[str(obj["condition"]).lower()]
        channels = tuple(
            ChannelMeasurement(_integer_field(c["id"], "channel id"), c["signal"], c["baseline"])
            for c in obj.get("channels", [])
        )
        load = obj.get("load", 0.0)
        if isinstance(load, bool):
            raise IngestionError(f"malformed record: load {load!r} is not a number")
        return MeasurementRecord(
            coupon_id=str(obj["coupon"]),
            layup_id=_integer_field(obj["layup"], "layup"),
            cycles=_integer_field(obj["cycles"], "cycles"),
            condition=cond,
            load=float(load),
            channels=channels,
        )
    except IngestionError:
        raise
    # OverflowError: JSON's Infinity as an integer field, or an integer too large for a float
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestionError(f"malformed record: {exc}") from exc


def read_records(path, strict: bool = True):
    """Read one-JSON-object-per-line records.

    Returns (records, skipped) where ``skipped`` counts malformed lines in
    lenient mode. In strict mode a malformed line raises IngestionError that
    names the line number.
    """
    records, skipped = [], 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_record_from_json(json.loads(line)))
            except (json.JSONDecodeError, IngestionError) as exc:
                if strict:
                    raise IngestionError(f"{path}:{lineno}: {exc}") from exc
                skipped += 1
    return records, skipped


def write_records(path, records) -> None:
    """Inverse of read_records, mainly for tests and synthetic fixtures."""
    with open(path, "w") as fh:
        for r in records:
            obj = {
                "coupon": r.coupon_id,
                "layup": r.layup_id,
                "cycles": r.cycles,
                "condition": r.condition.name.lower(),
                "load": r.load,
                "channels": [
                    {"id": c.channel_id, "signal": list(map(float, c.signal)),
                     "baseline": list(map(float, c.baseline))}
                    for c in r.channels
                ],
            }
            fh.write(json.dumps(obj) + "\n")


@dataclass(frozen=True)
class ImputerSpec:
    """Frozen per-column medians used to fill missing cells."""

    medians: np.ndarray


# The complete columns' medians are taken about this many bytes of the table
# at a time, so no table-sized copy is made.
_MEDIAN_BLOCK_BYTES = 512 * 1024


def fit_imputer(table: FeatureTable) -> ImputerSpec:
    """Median of the present (non-NaN) cells per column; 0 for fully missing columns.

    The complete columns are copied ``_MEDIAN_BLOCK_BYTES`` at a time, one
    column per C-ordered row, and each block's medians are selected in
    place. Selection is exact, so a median does not depend on its block.
    Each gappy column's median is taken over its present cells alone.
    """
    rows = table.rows
    missing = np.isnan(rows)
    medians = np.zeros(rows.shape[1])
    gappy = missing.any(axis=0)
    full = np.flatnonzero(~gappy)
    if len(table):
        step = max(1, _MEDIAN_BLOCK_BYTES // (8 * len(table)))
        for start in range(0, full.size, step):
            cols = full[start : start + step]
            # rows.T[cols] is a fresh C-ordered copy; a column-major block
            # would be copied again by median's NaN check
            medians[cols] = np.median(rows.T[cols], axis=1, overwrite_input=True)
    for j in np.flatnonzero(gappy):
        live = rows[~missing[:, j], j]
        if live.size:
            medians[j] = float(np.median(live))
    return ImputerSpec(medians)


def apply_imputer(spec: ImputerSpec, rows: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``rows`` with each NaN cell set to its column's median."""
    filled = np.array(rows, dtype=float, order="C")
    np.copyto(filled, spec.medians, where=np.isnan(filled))
    return filled


@dataclass(frozen=True)
class ScalerSpec:
    """Per-column affine normalization fitted on training rows only.

    ``minmax_pm1`` maps the training min/max to [-1, 1]; ``standard`` maps
    to zero mean and unit variance. Constant columns map to 0 and are
    flagged, so their transform is not invertible.
    """

    kind: str
    center: np.ndarray
    scale: np.ndarray
    constant: np.ndarray


def fit_scaler(rows: np.ndarray, kind: str = "minmax_pm1") -> ScalerSpec:
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"scaler needs a nonempty 2-D matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("scaler input must be complete; impute missing cells first")
    if kind == "minmax_pm1":
        lo, hi = x.min(axis=0), x.max(axis=0)
        center = 0.5 * (lo + hi)
        scale = 0.5 * (hi - lo)
    elif kind == "standard":
        center = x.mean(axis=0)
        scale = x.std(axis=0)
    else:
        raise InvalidInputError(f"unknown scaler kind {kind!r}")
    constant = scale == 0.0
    scale = np.where(constant, 1.0, scale)
    return ScalerSpec(kind, center, scale, constant)


def apply_scaler(spec: ScalerSpec, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(rows - center) / scale``, written to ``out`` when given (``out=rows``
    scales in place) and to a new array otherwise; returns the result."""
    x = np.asarray(rows, dtype=float)
    out = np.subtract(x, spec.center, out=out)
    return np.divide(out, spec.scale, out=out)


class OnlineStore:
    """Append-only feature store serving predictions without any retraining.

    Built by ``from_table``, which fits the imputer and scaler on the table
    and freezes them; appended rows and queries are normalized with those
    frozen statistics, so predictions made before an append are never
    changed by it.

    The store's state is one immutable ``Dataset``. ``snapshot()`` returns
    it as is, and an append builds the next ``Dataset`` with the new rows
    and swaps it in. One writer may append while readers predict: a
    reader keeps whatever ``Dataset`` it read, which no append changes.
    Each append copies the whole table, so a batch of rows goes in with
    one ``append_rows`` rather than row by row.
    """

    # nothing is ever refitted; kept for callers that report the refit count
    refit_count = 0

    def __init__(self, columns, params: MaxEntParams, imputer: ImputerSpec,
                 scaler: ScalerSpec | None, dataset: Dataset):
        self.columns = tuple(columns)
        self.params = params
        self.imputer = imputer
        self.scaler = scaler
        self._dataset = dataset

    @classmethod
    def from_table(
        cls,
        table: FeatureTable,
        params: MaxEntParams | None = None,
        scaler_kind: str | None = "minmax_pm1",
    ) -> "OnlineStore":
        """Impute, scale and wrap a table for the predictor.

        Pass ``scaler_kind=None`` to skip scaling (the rows must then
        already be normalized).

        The table is copied once: the imputed copy is scaled in place and
        becomes the ``Dataset``'s points, so loading holds the caller's
        table and the store's points and no other table-sized array (the
        ``standard`` scaler's fit makes one more while it runs). ``table``
        is not modified.
        """
        imputer = fit_imputer(table)
        points = apply_imputer(imputer, table.rows)
        scaler = None
        if scaler_kind is not None:
            scaler = fit_scaler(points, scaler_kind)
            apply_scaler(scaler, points, out=points)
        return cls(table.columns, params or MaxEntParams(), imputer, scaler,
                   Dataset._adopt(points, table.targets))

    def __len__(self) -> int:
        return self._dataset.n_points

    def normalize(self, features) -> np.ndarray:
        """Impute and scale one raw row, or a ``(k, n)`` matrix of raw
        queries, as the table's rows were."""
        # no copy: no caller keeps the result; an append stacks it into a new table
        x = np.asarray(features, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != len(self.columns):
            raise IngestionError(f"expected {len(self.columns)} features, got shape {x.shape}")
        if np.isinf(x).any():
            raise IngestionError("infinite feature value; only NaN marks a missing cell")
        if np.isnan(x).any():
            x = apply_imputer(self.imputer, x)
        return x if self.scaler is None else apply_scaler(self.scaler, x)

    def append_rows(self, rows, targets) -> int:
        """Append a ``(k, n)`` matrix of raw feature rows and their ``k``
        targets with one copy of the table; returns the first new row's index."""
        ds = self._dataset
        # the new Dataset adopts the stack, which no one else holds, as its points
        self._dataset = Dataset._adopt(np.vstack([ds.points, self.normalize(rows)]),
                                       np.append(ds.labels, targets))
        return ds.n_points

    def append_row(self, features, target: float) -> int:
        """Append one feature row; returns its row index."""
        if np.ndim(features) != 1:
            raise IngestionError(f"expected one row of features, got shape {np.shape(features)}")
        return self.append_rows(features, [target])

    def snapshot(self) -> Dataset:
        """The store's current immutable Dataset; an append replaces it."""
        return self._dataset

    def predict(self, features) -> Prediction:
        """Predict the target at a raw (unscaled) feature vector."""
        return predict_point(self.snapshot(), self.normalize(features), self.params)
