"""The benchmark workloads.

A workload is built once from the run's seed (``prepare``), then served in
passes: each pass repeats the same operations on the same inputs, from
set-up to the last output, and returns a :class:`Pass`. ``check`` compares
the first pass's outputs against computations made apart from the program
or against properties the method must have; later passes must reproduce
the first pass's output digest.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import inputs
import reference
import maxentnn.cli
import maxentnn.pipeline
from maxentnn.core import Prediction
from maxentnn.errors import MaxentError

EXIT_REASONS = ("converged", "local_minimum", "round_cap")


@dataclass
class Pass:
    """Timings, counts and outputs of one pass over a workload's inputs.

    ``parts`` splits the pass's time into named 2-D arrays of seconds, each
    of the same shape in every pass: one row per repeat of the work within
    the pass, one column per query or record where the work repeats;
    ``parts["setup"]`` holds the set-up alone. ``gauge`` names, for each
    part, the unit of :mod:`reference` that gauges the machine's speed for
    it and that unit's seconds measured beside each entry. The program's
    work spans ``wall_s`` seconds from ``start``; ``gauge_s`` of them went
    to those measurements. A query's latency is the sum of the parts named
    in ``latency``.
    """

    start: float
    wall_s: float
    parts: dict
    gauge: dict
    gauge_s: float
    latency: tuple
    attempted: int
    failed: int
    digest: str
    outputs: object = field(repr=False, default=None)


def _sha256(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def _value(pred: Prediction) -> float:
    return float(np.asarray(pred.value).ravel()[0])


def end_to_end(passes, scaled: bool) -> dict:
    """End-to-end metrics of a run's passes.

    Each part of each pass is first scaled to the reference speed of the
    unit that gauged it (see ``reference.py``) when ``scaled``, and left as
    measured otherwise. Then each entry of each part (the set-up, a query, a
    record's step) is taken at its median over all its repeats in the run,
    and the metrics are sums and medians of those typical times.
    """
    first = passes[0]
    typical = {}
    for k in first.parts:
        times = [p.parts[k] * (reference.to_reference_speed(*p.gauge[k]) if scaled else 1.0)
                 for p in passes]
        typical[k] = np.median(np.concatenate(times), axis=0)
    setup_s = float(typical.pop("setup")[0])
    latency = sum(typical[k] for k in first.latency)
    serve_s = sum(float(v.sum()) for v in typical.values())
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + serve_s,
        "queries_per_s": len(latency) / serve_s,
        "latency_p50_ms": 1e3 * float(np.median(latency)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------- wide-heldout


class WideHeldout:
    """Rows of a held-out specimen served CSV to CSV through ``maxentnn predict``.

    The queries run one after another (``--parallel 1``), in-process.
    """

    name = "wide-heldout"

    def prepare(self, rng, workdir):
        self.data = inputs.wide_heldout(rng)
        self.table = os.path.join(workdir, "table.csv")
        self.queries = os.path.join(workdir, "queries.csv")
        self.out = os.path.join(workdir, "predictions.csv")
        inputs.write_table_csv(self.table, self.data.train, self.data.train_y)
        inputs.write_table_csv(self.queries, self.data.queries, None)

    def run_pass(self, timer) -> Pass:
        argv = ["predict", "--table", self.table, "--queries", self.queries,
                "--out", self.out, "--parallel", "1"]
        before = reference.sample()
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = maxentnn.cli.main(argv)
        t1 = perf_counter()
        after = reference.sample()
        spans = timer.take()
        n = len(self.data.queries)
        setup = (spans[0][0] - t0) if spans else math.nan
        queries = np.array([e - s for s, e in spans]) if len(spans) == n else np.full(n, math.nan)
        parts = {"setup": np.array([[setup]]), "query": queries.reshape(1, n),
                 "rest": np.array([[t1 - t0 - setup - queries.sum()]])}
        # CSV parsing and writing run in the interpreter, a query in the solve
        speed = {unit: (before[unit] + after[unit]) / 2 for unit in before}
        units = {"setup": "interpreter", "query": "solver", "rest": "interpreter"}
        gauge = {k: (u, np.full(parts[k].shape, speed[u])) for k, u in units.items()}
        timing = dict(start=t0, wall_s=t1 - t0, parts=parts, gauge=gauge, gauge_s=0.0,
                      latency=("query",), attempted=n)
        if code != 0:
            return Pass(**timing, failed=n, digest="", outputs=[])
        with open(self.out, "rb") as fh:
            raw = fh.read()
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        failed = sum(bool(r["error"]) for r in rows) + max(0, n - len(rows))
        return Pass(**timing, failed=failed, digest=_sha256(raw), outputs=rows)

    def check(self, rows) -> list[str]:
        problems = []
        if len(rows) != len(self.data.queries):
            problems.append(f"{self.name}: {len(rows)} rows for {len(self.data.queries)} queries")
        lo, hi = self.data.train_y.min(), self.data.train_y.max()
        for row in rows:
            if row["error"]:
                continue
            value = float(row["prediction"])
            if not lo <= value <= hi:
                problems.append(f"{self.name}: prediction {value} outside the table's D range")
            if row["exit_reason"] not in EXIT_REASONS:
                problems.append(f"{self.name}: unknown exit reason {row['exit_reason']!r}")
        return problems


# ---------------------------------------------------------------- online


class Online:
    """Records of new coupons streamed into an ``OnlineStore``: predict, then append.

    A pass builds the store from the base records once, then streams the
    new records ``STREAMS`` times, each time into a fresh copy of the store
    as it was built. Every stream does the same work, so each stream is one
    more repeat of each record's steps.
    """

    name = "online"
    STREAMS = 2

    def prepare(self, rng, workdir):
        self.data = inputs.online_records(rng)

    def run_pass(self, timer) -> Pass:
        pipeline = maxentnn.pipeline
        before = reference.sample()
        t0 = perf_counter()
        table = pipeline.FeatureTable.from_records([p.record for p in self.data.base],
                                                   failure_cycles=self.data.failure_cycles)
        built = pipeline.OnlineStore.from_table(table)
        t1 = perf_counter()
        after = reference.sample()
        gauge_s = perf_counter() - t1
        streams = [self._stream(copy.deepcopy(built), list(table.targets))
                   for _ in range(self.STREAMS)]
        t2 = perf_counter()
        gauge_s += sum(float(st[0]["gauge"].sum()) for st in streams)
        parts = {"setup": np.array([[t1 - t0]])}
        parts.update({k: np.stack([st[0][k] for st in streams]) for k in streams[0][0] if k != "gauge"})
        # every step here is interpreter-bound: thousands of small numpy calls
        record_speed = np.stack([st[0]["gauge"] for st in streams])
        gauge = {k: ("interpreter", record_speed) for k in parts}
        gauge["setup"] = ("interpreter", np.array([[(before["interpreter"] + after["interpreter"]) / 2]]))
        digests = [st[3] for st in streams]
        n = len(self.data.stream)
        return Pass(t0, t2 - t0, parts, gauge, gauge_s, latency=("feature", "predict"),
                    attempted=3 * n * self.STREAMS, failed=sum(st[2] for st in streams),
                    digest=digests[0],
                    outputs=(streams[0][1], max(st[4] for st in streams), len(set(digests)) == 1))

    def _stream(self, store, targets):
        """Feed every new record through ``store``; return step times, outputs,
        failures, output digest and the store's refit count.

        Before each record one run of the ``interpreter`` reference unit is
        timed, to gauge the machine's speed for that record's steps.
        """
        pipeline = maxentnn.pipeline
        fc = self.data.failure_cycles
        n = len(self.data.stream)
        steps = {name: np.zeros(n) for name in ("gauge", "feature", "predict", "append", "check")}
        outputs, failed = [], 0
        for i, planted in enumerate(self.data.stream):
            steps["gauge"][i] = reference.time_unit("interpreter")
            a = perf_counter()
            features, mask, target = pipeline.build_feature_row(planted.record, failure_cycles=fc)
            raw = np.where(mask, np.nan, features)
            b = perf_counter()
            try:
                pred = store.predict(raw)
            except MaxentError:
                pred, failed = None, failed + 1
            c = perf_counter()
            try:
                index = store.append_row(raw, target)
            except MaxentError:
                index, failed = None, failed + 1
            d = perf_counter()
            try:
                own = store.predict(raw)
            except MaxentError:
                own, failed = None, failed + 1
            outputs.append((planted, features, mask, target, pred, index, own,
                            (min(targets), max(targets))))
            targets.append(target)
            e = perf_counter()
            for name, span in zip(("feature", "predict", "append", "check"), (b - a, c - b, d - c, e - d)):
                steps[name][i] = span
        canonical = [[_value(o[4]), o[4].diagnostics(), o[5], _value(o[6])]
                     if o[4] is not None and o[6] is not None else None for o in outputs]
        return steps, outputs, failed, _sha256(canonical), store.refit_count

    def check(self, outputs) -> list[str]:
        problems = []
        channels = inputs.N_CHANNELS
        records, refits, streams_agree = outputs
        if not streams_agree:
            problems.append("online: the streams of one pass gave different outputs")
        if refits != 0:
            problems.append(f"online: refit_count is {refits}, expected 0")
        for planted, features, mask, target, pred, index, own, (lo, hi) in records:
            dead = np.isnan(planted.power)
            for offset, planted_values in ((0, planted.power), (channels, planted.corr)):
                got = features[offset:offset + channels]
                if not np.array_equal(mask[offset:offset + channels], dead):
                    problems.append("online: masked cells differ from the dead baselines")
                elif np.any(np.abs(got[~dead] - planted_values[~dead]) > 1e-9):
                    problems.append("online: features differ from the planted values")
            if target != planted.target:
                problems.append(f"online: target {target} is not cycles / failure cycles")
            if pred is not None and not lo <= _value(pred) <= hi:
                problems.append(f"online: prediction {_value(pred)} outside the store's targets")
            if own is not None and _value(own) != target:
                problems.append(f"online: appended row {index} predicts {_value(own)}, not {target}")
        return problems


WORKLOADS = {w.name: w for w in (WideHeldout, Online)}
