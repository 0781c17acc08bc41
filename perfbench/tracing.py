"""Timing and tracing of calls into ``maxentnn``, from outside the program.

Timed runs wrap one function, the per-query entry point, and keep its
start and end times. Traced runs wrap every public function listed in
``TRACE_POINTS`` at the place its caller looks it up, keep a span per call
in memory, and turn each pass's spans into per-layer metrics when the pass
ends. A span's self time is its duration minus the time of its child spans
on the same thread.
"""

from __future__ import annotations

import contextlib
import threading
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import maxentnn.cli
import maxentnn.core
import maxentnn.pipeline

_core, _cli, _pipeline = maxentnn.core, maxentnn.cli, maxentnn.pipeline
_store = _pipeline.OnlineStore

# layer metric name -> places its function is looked up by its callers
TRACE_POINTS = {
    "core.predict_point": [(_core, "predict_point"), (_pipeline, "predict_point")],
    "core.filter_convex": [(_core, "filter_convex")],
    "core.optimize_bandwidth": [(_core, "optimize_bandwidth")],
    "core.solve_weights": [(_core, "solve_weights")],
    "core.predict_batch": [(_cli, "predict_batch")],
    "pipeline.fit_imputer": [(_cli, "fit_imputer"), (_pipeline, "fit_imputer")],
    "pipeline.apply_imputer": [(_cli, "apply_imputer"), (_pipeline, "apply_imputer")],
    "pipeline.fit_scaler": [(_cli, "fit_scaler"), (_pipeline, "fit_scaler")],
    "pipeline.apply_scaler": [(_cli, "apply_scaler"), (_pipeline, "apply_scaler")],
    "pipeline.build_feature_row": [(_pipeline, "build_feature_row")],
    "pipeline.OnlineStore.snapshot": [(_store, "snapshot")],
    "pipeline.OnlineStore.append_row": [(_store, "append_row")],
    "signals.power_ratio": [(_pipeline, "power_ratio")],
    "signals.correlation_coefficient": [(_pipeline, "correlation_coefficient")],
    "laminate.abd_matrices": [(_pipeline, "abd_matrices")],
}

IMPUTE_SCALE = ("pipeline.fit_imputer", "pipeline.apply_imputer",
                "pipeline.fit_scaler", "pipeline.apply_scaler")

# per-layer metric name -> unit, as BENCHMARK.json lists them
LAYER_METRICS = {
    "core.predict_point.calls": "count",
    "core.predict_point.self_s": "s",
    "core.filter_convex.calls": "count",
    "core.filter_convex.s": "s",
    "core.optimize_bandwidth.s": "s",
    "core.solve_weights.calls": "count",
    "core.solve_weights.s": "s",
    "core.solve_weights.iterations": "count",
    "core.solve_weights.repeat_share": "ratio",
    "core.rounds_per_query": "count",
    "core.neighbors_per_query_p50": "count",
    "core.exit.converged": "count",
    "core.exit.local_minimum": "count",
    "core.exit.round_cap": "count",
    "pipeline.impute_scale_s": "s",
    "pipeline.build_feature_row.calls": "count",
    "pipeline.build_feature_row.s": "s",
    "pipeline.OnlineStore.snapshot.calls": "count",
    "pipeline.OnlineStore.snapshot.s": "s",
    "pipeline.OnlineStore.snapshot.bytes": "bytes",
    "pipeline.OnlineStore.append_row.s": "s",
    "signals.power_ratio.calls": "count",
    "signals.power_ratio.s": "s",
    "signals.correlation_coefficient.calls": "count",
    "signals.correlation_coefficient.s": "s",
    "laminate.abd_matrices.calls": "count",
    "laminate.abd_matrices.s": "s",
    "cli.load_s": "s",
    "cli.write_s": "s",
    "trace.wall_s": "s",
}


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute) -> value`` for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for (owner, attr) in replacements]
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class QueryTimer:
    """Start and end time of every call to the per-query entry point."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []

    def wrap(self, fn):
        spans = self.spans

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((start, perf_counter()))

        return timed

    @contextlib.contextmanager
    def installed(self):
        with patched({(_core, "predict_point"): self.wrap(_core.predict_point)}):
            yield

    def take(self) -> list[tuple[float, float]]:
        """The spans recorded since the last call, in start order."""
        spans = sorted(self.spans)
        self.spans.clear()
        return spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    info: object = None


class Tracer:
    """Spans of every call through ``TRACE_POINTS``, aggregated per pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = {"child_s": 0.0}
            stack.append(frame)
            result = None
            count_bytes = name == "pipeline.OnlineStore.snapshot"
            if count_bytes:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                info = tracemalloc.get_traced_memory()[1] if count_bytes else None
                if count_bytes:
                    tracemalloc.stop()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent["child_s"] += end - start
                if name == "core.predict_point" and result is not None:
                    info = (result.exit_reason, result.rounds, result.n_neighbors)
                elif name == "core.solve_weights" and result is not None:
                    info = (result.iterations, _repeats(parent, args))
                span = Span(name, start, end, end - start - frame["child_s"], info)
                with tracer._lock:
                    tracer._spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        replacements = {}
        for name, places in TRACE_POINTS.items():
            for owner, attr in places:
                replacements[(owner, attr)] = self.wrap(name, getattr(owner, attr))
        with patched(replacements):
            yield

    def finish_pass(self, pass_start: float, pass_end: float) -> dict:
        """Per-layer metrics of the spans recorded since the last pass ended."""
        with self._lock:
            spans, self._spans = self._spans, []
        return layer_metrics(spans, pass_start, pass_end)


def _repeats(parent, args) -> bool:
    """Whether this solve's subset and similarities equal the query's previous solve."""
    if parent is None:
        return False
    points, weights = np.asarray(args[0]), np.asarray(args[2])
    previous = parent.get("solve")
    parent["solve"] = (points, weights)
    return (previous is not None and previous[0].shape == points.shape
            and np.array_equal(previous[0], points) and np.array_equal(previous[1], weights))


def layer_metrics(spans: list[Span], pass_start: float, pass_end: float) -> dict:
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return float(sum(s.end - s.start for s in by_name.get(name, ())))

    queries = [s.info for s in by_name.get("core.predict_point", ()) if s.info is not None]
    solves = [s.info for s in by_name.get("core.solve_weights", ()) if s.info is not None]
    exits = [q[0] for q in queries]
    snapshot_bytes = [s.info for s in by_name.get("pipeline.OnlineStore.snapshot", ())]
    pipeline_starts = [s.start for name in IMPUTE_SCALE for s in by_name.get(name, ())]
    batch_ends = [s.end for s in by_name.get("core.predict_batch", ())]
    via_cli = bool(pipeline_starts) and bool(batch_ends)

    out = {
        "core.predict_point.calls": calls("core.predict_point"),
        "core.predict_point.self_s": float(sum(s.self_s for s in by_name.get("core.predict_point", ()))),
        "core.filter_convex.calls": calls("core.filter_convex"),
        "core.filter_convex.s": total("core.filter_convex"),
        "core.optimize_bandwidth.s": total("core.optimize_bandwidth"),
        "core.solve_weights.calls": calls("core.solve_weights"),
        "core.solve_weights.s": total("core.solve_weights"),
        "core.solve_weights.iterations": int(sum(s[0] for s in solves)),
        "core.solve_weights.repeat_share": (sum(s[1] for s in solves) / len(solves)) if solves else 0.0,
        "core.rounds_per_query": float(np.mean([q[1] for q in queries])) if queries else 0.0,
        "core.neighbors_per_query_p50": float(np.median([q[2] for q in queries])) if queries else 0.0,
        "core.exit.converged": exits.count("converged"),
        "core.exit.local_minimum": exits.count("local_minimum"),
        "core.exit.round_cap": exits.count("round_cap"),
        "pipeline.impute_scale_s": sum(total(name) for name in IMPUTE_SCALE),
        "pipeline.build_feature_row.calls": calls("pipeline.build_feature_row"),
        "pipeline.build_feature_row.s": total("pipeline.build_feature_row"),
        "pipeline.OnlineStore.snapshot.calls": calls("pipeline.OnlineStore.snapshot"),
        "pipeline.OnlineStore.snapshot.s": total("pipeline.OnlineStore.snapshot"),
        "pipeline.OnlineStore.snapshot.bytes": int(sum(snapshot_bytes)),
        "pipeline.OnlineStore.append_row.s": total("pipeline.OnlineStore.append_row"),
        "signals.power_ratio.calls": calls("signals.power_ratio"),
        "signals.power_ratio.s": total("signals.power_ratio"),
        "signals.correlation_coefficient.calls": calls("signals.correlation_coefficient"),
        "signals.correlation_coefficient.s": total("signals.correlation_coefficient"),
        "laminate.abd_matrices.calls": calls("laminate.abd_matrices"),
        "laminate.abd_matrices.s": total("laminate.abd_matrices"),
        # only the CLI workloads call into the pipeline and then predict_batch
        "cli.load_s": (min(pipeline_starts) - pass_start) if via_cli else 0.0,
        "cli.write_s": (pass_end - max(batch_ends)) if via_cli else 0.0,
        "trace.wall_s": pass_end - pass_start,
    }
    return out
