"""Fixed reference work that gauges the machine's speed while a run lasts.

On a shared machine the same code runs at different speeds from one second,
or one minute, to the next, as other tenants come and go. Each unit below is
a small, fixed piece of work written in the benchmark's own code and shaped
like one kind of work the program does. The workloads time the units beside
the program's work (around each pass, and on ``online`` before every
streamed record), and the benchmark scales each measured time by the ratio
of the unit's reference time to its time then, so a step that ran in a slow
phase is reported as it would have taken on a quiet machine. None of the
units calls the program, so a change to the program cannot change them.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20221019)
# shaped like the weight solve over a whole wide table: 530 features + 1, 1368 rows
_K = _rng.normal(size=(531, 1368))
_B = _rng.normal(size=531)
# shaped like the wide table's CSV: rows of 530 numbers
_CSV = "\n".join(",".join(f"{v:.17g}" for v in row) for row in _rng.normal(size=(2, 530)))
# shaped like one record's signals: channels of 256 samples and their baselines
_SIGNALS = _rng.normal(size=(16, 256))
_BASELINES = _rng.normal(size=(16, 256))


def interpreter() -> None:
    """Python-level work: parse CSV rows into floats, then small-array statistics."""
    [[float(x) for x in row] for row in csv.reader(io.StringIO(_CSV))]
    for s, b in zip(_SIGNALS, _BASELINES):
        ds, db = s - s.mean(), b - b.mean()
        float(np.mean(ds * db)) / math.sqrt(float(np.mean(ds * ds)) * float(np.mean(db * db)))


def solver() -> None:
    """Array-level work: projected gradient steps on a wide dense system."""
    kt = _K.T
    u = np.full(_K.shape[1], 1.0 / _K.shape[1])
    for _ in range(6):
        r = _K @ u - _B
        u = np.maximum(u - 1e-5 * (kt @ r), 0.0)
        float(r @ r)


UNITS = {"interpreter": interpreter, "solver": solver}

# Seconds each unit takes inside a benchmark run on the reference machine
# (see README.md) when that machine is quiet: the fast one of the two speeds
# it switches between, read off the lower tail of its readings in trial runs.
REFERENCE_S = {"interpreter": 1.05e-3, "solver": 3.7e-3}


def time_unit(name: str) -> float:
    """Seconds one run of the unit ``name`` takes now."""
    start = perf_counter()
    UNITS[name]()
    return perf_counter() - start


def sample(repeats: int = 9) -> dict[str, float]:
    """Median seconds of each unit over ``repeats`` runs, the units interleaved."""
    times = {name: [] for name in UNITS}
    for _ in range(repeats):
        for name in UNITS:
            times[name].append(time_unit(name))
    return {name: statistics.median(t) for name, t in times.items()}


def to_reference_speed(unit: str, measured_s):
    """Factor that scales a time measured beside ``measured_s`` of ``unit`` to reference speed."""
    return REFERENCE_S[unit] / np.asarray(measured_s)
