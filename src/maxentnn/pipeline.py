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
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Prediction, _checked_rows, _with_ones, predict_point
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
    "read_numeric_column",
    "write_csv",
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


# the 18 stiffness terms of each coupon layup, read-only, keyed by its id;
# each id has a one-hot column, and a record may name no other
_STIFFNESS_ROWS = {i: stiffness_feature_row(abd_matrices(layup))
                   for i, layup in standard_layups().items()}
for _row in _STIFFNESS_ROWS.values():
    _row.setflags(write=False)


def _build_columns() -> tuple:
    cols = [f"pw_c{i}" for i in range(1, N_CHANNELS + 1)]
    cols += [f"cc_c{i}" for i in range(1, N_CHANNELS + 1)]
    cols += list(STIFFNESS_COLUMNS)
    cols += [f"condition_{i}" for i in range(4)]
    cols += [f"layup_{i}" for i in _STIFFNESS_ROWS]
    cols.append("load")
    return tuple(cols)


FEATURE_COLUMNS = _build_columns()
TARGET_COLUMN = "D"
TABLE_COLUMNS = FEATURE_COLUMNS + (TARGET_COLUMN,)

_N_FEATURES = len(FEATURE_COLUMNS)  # 530


def build_feature_row(record, failure_cycles):
    """Turn one record into (features, mask, target).

    ``failure_cycles`` maps coupon id -> cycles at failure, and the
    record's layup id must be one of the three coupon stacks, 1..3. Returns
    the 530-wide feature vector, whose missing cells (absent channels, dead
    baselines) are NaN, the boolean mask ``np.isnan(features)`` and the
    damage-fraction target.
    """
    if record.coupon_id not in failure_cycles:
        raise IngestionError(f"unknown coupon {record.coupon_id!r}: no failure cycle count")
    if record.layup_id not in _STIFFNESS_ROWS:
        raise IngestionError(f"unknown layup id {record.layup_id!r}: no one-hot column (ids 1..3)")

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
    features[base : base + 18] = _STIFFNESS_ROWS[record.layup_id]

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
    def from_records(cls, records, failure_cycles) -> "FeatureTable":
        triples = [build_feature_row(r, failure_cycles) for r in records]
        if not triples:
            return cls(np.zeros((0, _N_FEATURES)), np.zeros(0))
        rows = np.stack([t[0] for t in triples])
        targets = np.array([t[2] for t in triples])
        return cls(rows, targets)

    def to_csv(self, path) -> None:
        """Write the canonical header plus one row per record; missing cells are empty."""
        write_csv(path, list(self.columns) + [TARGET_COLUMN],
                  (row.tolist() + [target] for row, target in zip(self.rows, self.targets.tolist())))


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows`` of cells, under the one cell rule of
    every CSV the package writes: None and NaN are empty, a float (numpy's
    float64 too) is its shortest repr, anything else its ``str``. ``csv``
    already writes None as empty and a cell as its ``str``, so only NaN is
    mapped; a call per cell would slow a wide table's write by about 15%."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([None if v != v else v for v in row] for row in rows)  # v != v: NaN


def _checked_targets(path, header: list, data: np.ndarray) -> np.ndarray:
    """The target column of a parsed table, a view of ``data``; raises an
    IngestionError unless the header ends in ``D`` and every target lies in
    [0, 1]."""
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
            f"{path}:{_record_at(path, i)[0]}: damage fraction must lie in [0, 1], "
            f"got {targets[i]}"
        )
    return targets


def _record_at(path, index: int):
    """The file line on which body record ``index`` (from 0) starts, and
    the record's cells as ``csv`` reads them.

    A quoted cell may run over lines, so the header and the records before
    it are read again with ``csv``, which counts the lines they span. Only
    an error pays for the count.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, index + 1):
            pass
        return reader.line_num + 1, next(reader, [])


def _loadtxt_records(path, lines, n_columns: int, blanks: list):
    """The body's records as lines ``np.loadtxt`` reads to the cells ``csv`` reads.

    Each empty cell becomes ``nan``, and each record's count of them is
    appended to ``blanks``. A record with a quote, whose cells may hold
    commas or run over more lines, is split by ``csv`` and written back
    with every cell quoted. A blank line or a record without ``n_columns``
    cells raises an IngestionError naming its line.
    """
    for index, line in enumerate(lines):
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
            raise IngestionError(f"{path}:{_record_at(path, index)[0]}: expected {n_columns} cells")
        blanks.append(blank)
        yield line


def _parse(path, column: str | None = None):
    """Header, body and each record's count of empty cells of a headered
    CSV, the body parsed in one ``np.loadtxt`` pass whose lines are
    rewritten only where a cell is empty (to ``nan``) or quoted. With
    ``column``, the body is that ``(m, 1)`` column, and other cells may
    hold any text; every record must hold the header's count of cells."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        usecols = None
        if column is not None:
            if column not in header:
                raise IngestionError(f"{path}: no column named {column!r}")
            usecols = (header.index(column),)
        first = next(fh, None)
        if first is None:  # np.loadtxt would warn that the input held no data
            return header, np.zeros((0, len(usecols or header))), []
        blanks = []
        records = _loadtxt_records(path, itertools.chain([first], fh), len(header), blanks)
        try:
            data = np.loadtxt(records, delimiter=",", comments=None, ndmin=2, quotechar='"',
                              usecols=usecols)
        except ValueError as exc:
            # numpy names a cell it cannot read by its 0-based row and 1-based column
            cell = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc), re.DOTALL)
            if cell is None:
                raise IngestionError(f"{path}: {exc}") from None
            raise IngestionError(f"{path}:{_record_at(path, int(cell[2]))[0]}: "
                                 f"{cell[1]} in column {cell[3]}") from None
    return header, data, blanks


def read_numeric_csv(path):
    """Header and float matrix of a headered numeric CSV.

    Empty cells become NaN (missing). Any other cell must be a finite
    number in numpy's float grammar: text such as ``abc``, ``inf``,
    ``nan``, ``1_0`` or a non-ASCII digit raises an IngestionError naming
    the file line on which its record starts.
    """
    header, data, blanks = _parse(path)
    # a NaN that is not an empty field came from text such as "nan"
    non_finite = np.isinf(data).any(axis=1) | (np.isnan(data).sum(axis=1) != blanks)
    if non_finite.any():
        raise IngestionError(
            f"{path}:{_record_at(path, int(np.argmax(non_finite)))[0]}: non-finite number; "
            "only empty fields mark missing cells"
        )
    return header, data


def read_numeric_column(path, column: str) -> np.ndarray:
    """The named column of a headered CSV, read as ``read_numeric_csv``
    reads cells, but an empty, ``nan`` or infinite cell is an
    IngestionError naming its line and text: no prediction or target is
    missing. The other columns may hold any text."""
    header, data, _ = _parse(path, column)
    values = data[:, 0]
    bad = ~np.isfinite(values)
    if bad.any():
        line, cells = _record_at(path, int(np.argmax(bad)))
        text = cells[header.index(column)]
        raise IngestionError(f"{path}:{line}: non-finite {column!r} value {text!r}")
    return values


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
        if isinstance(load, (bool, str)):
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


# The complete columns' medians are taken about this many bytes of the
# table at a time, so no table-sized copy is made.
_COLUMN_BLOCK_BYTES = 512 * 1024


def fit_imputer(rows: np.ndarray) -> ImputerSpec:
    """Median of the present (non-NaN) cells per column; 0 for fully missing columns.

    The complete columns are copied ``_COLUMN_BLOCK_BYTES`` at a time, one
    column per C-ordered row, and each block's medians are selected in
    place. Selection is exact, so a median does not depend on its block.
    Each gappy column's median is taken over its present cells alone.
    """
    rows = np.asarray(rows, dtype=float)
    missing = np.isnan(rows)
    medians = np.zeros(rows.shape[1])
    gappy = missing.any(axis=0)
    full = np.flatnonzero(~gappy)
    if rows.shape[0]:
        step = max(1, _COLUMN_BLOCK_BYTES // (8 * rows.shape[0]))
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


def apply_imputer(spec: ImputerSpec, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rows`` with each NaN cell set to its column's median, written to
    ``out`` when given (``out=rows`` fills in place) and to a new C-ordered
    array otherwise; returns the result."""
    if out is None:
        out = np.array(rows, dtype=float, order="C")
    else:
        np.copyto(out, rows)  # numpy copies nothing onto the same memory
    np.copyto(out, spec.medians, where=np.isnan(out))
    return out


@dataclass(frozen=True)
class ScalerSpec:
    """Per-column map of the training min/max onto [-1, 1]; a constant column maps to 0."""

    center: np.ndarray
    scale: np.ndarray


def fit_scaler(rows: np.ndarray) -> ScalerSpec:
    """Fit the [-1, 1] min-max map on the complete matrix ``rows``."""
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError(f"scaler needs a nonempty 2-D matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("scaler input must be complete; impute missing cells first")
    lo, hi = x.min(axis=0), x.max(axis=0)
    scale = 0.5 * (hi - lo)
    return ScalerSpec(0.5 * (lo + hi), np.where(scale == 0.0, 1.0, scale))


def apply_scaler(spec: ScalerSpec, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(rows - center) / scale``, written to ``out`` when given (``out=rows``
    scales in place) and to a new array otherwise; returns the result."""
    x = np.asarray(rows, dtype=float)
    out = np.subtract(x, spec.center, out=out)
    return np.divide(out, spec.scale, out=out)


# A full buffer is replaced by one this many times the rows it must then
# hold, so a stream of single-row appends copies the table O(log m) times.
_GROWTH = 1.5


class OnlineStore:
    """Append-only feature store serving predictions without any retraining.

    Built by ``from_csv`` or ``from_table``, which fit the imputer and the
    [-1, 1] min-max scaler on the table and freeze them; appended rows and
    queries are normalized with those frozen statistics, so predictions
    made before an append are never changed by it.

    The store's state is one immutable ``Dataset``, which ``snapshot()``
    returns as is. The built store's ``Dataset`` holds the exact-sized
    table. The first append moves the rows and labels to a buffer with
    spare rows at the end (``_GROWTH`` times the rows then held), and every
    snapshot after it is a ``Dataset`` over read-only ``[:m]`` views of
    that buffer. An append writes its k rows past the end of every
    snapshot, checks only them and swaps in the longer prefix, so it costs
    O(k·n), not O(m·n). A full buffer is copied into a larger one, and
    older snapshots keep the old buffer. A copy of the store, shallow or
    deep, or an unpickled one, starts without a buffer and makes its own on
    its first append, so no two stores write into one buffer. One writer
    may append while readers predict: a reader keeps whatever ``Dataset``
    it read, which no append changes.
    """

    # nothing is ever refitted; kept for callers that report the refit count
    refit_count = 0

    def __init__(self, columns, imputer: ImputerSpec, scaler: ScalerSpec, dataset: Dataset):
        self.columns = tuple(columns)
        self.imputer = imputer
        self.scaler = scaler
        self._dataset = dataset
        self._buffer = None  # (rows, labels), made by the first append

    def __getstate__(self):
        # copies and pickles leave the buffer behind (see the class)
        return {**self.__dict__, "_buffer": None}

    @classmethod
    def from_table(cls, table: FeatureTable) -> "OnlineStore":
        """Impute, scale and wrap a table for the predictor.

        The table is copied once, into the ``Dataset``'s ``[X | 1]`` rows,
        where it is imputed and scaled in place, so loading holds the
        caller's table and the store's points and no other table-sized
        array. ``table`` is not modified.
        """
        imputer = fit_imputer(table.rows)
        rows = _with_ones(table.rows)  # made after the medians, so their blocks come first
        return cls._build(table.columns, imputer, rows, table.targets)

    @classmethod
    def from_csv(cls, path) -> "OnlineStore":
        """The store over a headered CSV table whose last column is the
        target ``D``; the other header names become ``columns`` and empty
        cells are missing (NaN).

        The parsed ``(m, n + 1)`` array becomes the ``Dataset``'s
        ``[X | 1]`` rows: the targets ``D`` are copied out, the feature
        columns are imputed and scaled in place and the ``D`` column is
        overwritten with ones, so one table-sized array is held from the
        parse to the last query. The store is the one ``from_table`` builds
        from the same rows, targets and columns, bit for bit.
        """
        header, data = read_numeric_csv(path)
        targets = _checked_targets(path, header, data).copy()
        return cls._build(header[:-1], fit_imputer(data[:, :-1]), data, targets)

    @classmethod
    def _build(cls, columns, imputer: ImputerSpec, rows: np.ndarray, targets) -> "OnlineStore":
        """The store over ``rows``, a C-ordered ``(m, n + 1)`` array that no
        caller keeps, whose first n columns hold the raw table the imputer
        was fitted on. They are imputed and scaled in place, and the array,
        checked by ``_checked_rows``, becomes the ``Dataset``'s ``[X | 1]``
        rows."""
        points = rows[:, :-1]
        apply_imputer(imputer, points, out=points)
        scaler = fit_scaler(points)
        apply_scaler(scaler, points, out=points)
        labels = _checked_rows(rows, targets, "regression")
        return cls(columns, imputer, scaler, Dataset._prefix(rows, labels, len(rows)))

    def __len__(self) -> int:
        return self._dataset.n_points

    def normalize(self, features) -> np.ndarray:
        """Impute and scale one raw row, or a ``(k, n)`` matrix of raw
        queries, as the table's rows were."""
        # no copy: no caller keeps the result; an append copies it into the buffer
        x = np.asarray(features, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != len(self.columns):
            raise IngestionError(f"expected {len(self.columns)} features, got shape {x.shape}")
        if np.isinf(x).any():
            raise IngestionError("infinite feature value; only NaN marks a missing cell")
        if np.isnan(x).any():
            x = apply_imputer(self.imputer, x)
        return apply_scaler(self.scaler, x)

    def append_rows(self, rows, targets) -> int:
        """Append a ``(k, n)`` matrix of raw feature rows and their ``k``
        targets; returns the first new row's index.

        The k rows are normalized, written past the snapshot's end and
        checked there, so an append costs O(k·n) whatever the store's size,
        except when the buffer is made or replaced (see the class). An error
        leaves the store as it was.
        """
        ds = self._dataset
        m = ds.n_points
        new = np.atleast_2d(self.normalize(rows))
        labels = np.asarray(targets, dtype=float).reshape(-1, 1)
        if new.shape[0] == labels.shape[0] == 0:
            return m  # nothing to append: no buffer is made and the snapshot stays
        end = m + new.shape[0]
        if self._buffer is None or end > len(self._buffer[0]):
            capacity = max(end, int(_GROWTH * end))
            rows_buf, labels_buf = np.empty((capacity, ds.n_features + 1)), np.empty((capacity, 1))
            rows_buf[:m], labels_buf[:m] = ds._rows, ds.labels
            self._buffer = rows_buf, labels_buf
        rows_buf, labels_buf = self._buffer
        rows_buf[m:end, :-1] = new
        labels_buf[m:end] = _checked_rows(rows_buf[:end], labels, "regression", m)
        self._dataset = Dataset._prefix(rows_buf, labels_buf, end)
        return m

    def append_row(self, features, target: float) -> int:
        """Append one feature row; returns its row index."""
        if np.ndim(features) != 1:
            raise IngestionError(f"expected one row of features, got shape {np.shape(features)}")
        return self.append_rows(features, [target])

    def snapshot(self) -> Dataset:
        """The store's current immutable Dataset; an append replaces it
        with a longer one and leaves this one as it is."""
        return self._dataset

    def predict(self, features) -> Prediction:
        """Predict the target at a raw (unscaled) feature vector."""
        return predict_point(self.snapshot(), self.normalize(features))
