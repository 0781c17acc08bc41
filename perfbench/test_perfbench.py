"""Tests of the benchmark's own parts: inputs, tracing and the promises it relies on.

Run with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path
from time import sleep

import numpy as np

import inputs
import reference
import tracing
from maxentnn.cli import main
from maxentnn.signals import correlation_coefficient, power_ratio
from workloads import Pass, end_to_end

ROOT = Path(__file__).resolve().parent.parent


def test_wide_output_is_byte_identical_across_thread_counts(tmp_path):
    data = inputs.wide_heldout(np.random.default_rng(3))
    table, queries = tmp_path / "table.csv", tmp_path / "queries.csv"
    inputs.write_table_csv(table, data.train, data.train_y)
    inputs.write_table_csv(queries, data.queries, None)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"pred_{workers}.csv"
        assert main(["predict", "--table", str(table), "--queries", str(queries),
                     "--out", str(out), "--parallel", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_planted_signals_carry_their_power_ratio_and_correlation():
    rng = np.random.default_rng(5)
    baselines = inputs._unit_zero_mean(rng.normal(size=(6, 64)))
    power = np.array([1.0, 0.5, 0.2, 1.3, 0.9, 0.05])
    corr = np.array([1.0, 0.95, 0.5, 0.2, -0.3, 0.0])
    signals = inputs.planted_signals(rng, baselines, power, corr)
    for s, b, p, r in zip(signals, baselines, power, corr):
        assert abs(power_ratio(s, b) - p) < 1e-12
        assert abs(correlation_coefficient(s, b) - r) < 1e-12


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def child():
        sleep(0.02)

    wrapped_child = tracer.wrap("core.filter_convex", child)

    def parent():
        sleep(0.01)
        wrapped_child()

    start = tracing.perf_counter()
    tracer.wrap("core.predict_point", parent)()
    spans = {s.name: s for s in tracer._spans}
    metrics = tracer.finish_pass(start, tracing.perf_counter())
    assert metrics["core.filter_convex.calls"] == 1
    assert abs(spans["core.predict_point"].self_s - 0.01) < 0.005
    assert metrics["core.predict_point.self_s"] == spans["core.predict_point"].self_s


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_end_to_end_scales_each_step_by_its_gauge_then_takes_medians():
    ref = reference.REFERENCE_S["interpreter"]

    def one_pass(setup, queries, gauge):
        parts = {"setup": np.array([[setup]]), "query": np.array([queries])}
        gauges = {k: ("interpreter", np.full(v.shape, gauge)) for k, v in parts.items()}
        return Pass(0.0, 0.0, parts, gauges, 0.0, ("query",), 2, 0, "")

    # the second pass ran at half speed and its gauge saw it; the third is an outlier
    passes = [one_pass(1.0, [0.1, 0.3], ref), one_pass(2.0, [0.2, 0.6], 2 * ref),
              one_pass(1.5, [0.9, 0.9], ref)]
    scaled = end_to_end(passes, scaled=True)
    assert abs(scaled["setup_s"] - 1.0) < 1e-12
    assert abs(scaled["latency_p50_ms"] - 1e3 * (0.1 + 0.3) / 2) < 1e-9
    assert abs(scaled["wall_s"] - 1.4) < 1e-12
    measured = end_to_end(passes, scaled=False)
    assert abs(measured["setup_s"] - 1.5) < 1e-12
    assert abs(measured["queries_per_s"] - 2 / (0.2 + 0.6)) < 1e-12
