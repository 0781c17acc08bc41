"""Acceptance gate: every shipped claim, each at its stated tolerance.

Each test prints one PASS line once its assertions hold, so a verbose run
reads as a checklist. The toy thresholds come from the frozen reference in
tests/golden/toy_golden.json (regenerate with scripts/make_golden.py).
"""

import json
import math
import pathlib
import time

import numpy as np

from maxentnn import (
    Dataset,
    MaxEntParams,
    correlation_coefficient,
    filter_convex,
    optimize_bandwidth,
    predict_point,
    abd_matrices,
    standard_layups,
)
from maxentnn.evaluation import (
    ToySpec,
    boundary_distances,
    diagonal_queries,
    metrics,
    run_synthetic_benchmark,
    run_toy_experiment,
)
from maxentnn.pipeline import ChannelMeasurement, Condition, FeatureTable, MeasurementRecord, OnlineStore, build_feature_row

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "toy_golden.json").read_text()
)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


class TestToyReproduction:
    def test_regression_tracks_the_true_surfaces(self):
        start = time.monotonic()
        spec = ToySpec("regression", 500, 50, GOLDEN["regression"]["seed"])
        result = run_toy_experiment(spec, "maxent")
        elapsed = time.monotonic() - start

        x = np.linspace(0.0, 1.0, 50)
        interior = (x >= 0.1) & (x <= 0.9)
        y1_true = np.array([float(r["y1_true"]) for r in result.rows])
        y1_pred = np.array([float(r["y1_pred"]) for r in result.rows])
        y2_true = np.array([float(r["y2_true"]) for r in result.rows])
        y2_pred = np.array([float(r["y2_pred"]) for r in result.rows])

        r2_y2 = metrics(y2_true[interior], y2_pred[interior]).r2
        mae_y1 = float(np.abs(y1_true - y1_pred)[interior].mean())
        assert r2_y2 >= 0.95
        assert mae_y1 <= 2.0 * GOLDEN["regression"]["interior_mae_y1"]
        assert elapsed < 60.0
        _passed(f"toy regression (interior R2={r2_y2:.4f}, MAE={mae_y1:.4f}, {elapsed:.1f}s)")

    def test_classification_accuracy_off_the_boundaries(self):
        start = time.monotonic()
        spec = ToySpec("classification", 500, 50, GOLDEN["classification"]["seed"])
        result = run_toy_experiment(spec, "maxent")
        elapsed = time.monotonic() - start

        queries = diagonal_queries(50)
        band = GOLDEN["classification"]["boundary_band"]
        accs = {}
        for which, name in (("sin", "y1"), ("cos", "y2")):
            keep = boundary_distances(queries, which) >= band
            true = np.array([int(r[f"{name}_true"]) for r in result.rows])
            pred = np.array([int(r[f"{name}_pred"]) for r in result.rows])
            accs[name] = float((true[keep] == pred[keep]).mean())
            assert accs[name] >= 0.9
        assert elapsed < 60.0
        _passed(
            f"toy classification (acc y1={accs['y1']:.3f}, y2={accs['y2']:.3f}, {elapsed:.1f}s)"
        )


class TestConstraintSuite:
    def test_thousand_randomized_predictions(self):
        params = MaxEntParams()  # published defaults
        rng = np.random.default_rng(20_240_817)
        converged = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(20, 201))
            pts = rng.uniform(-1.0, 1.0, size=(m, n))
            labels = rng.uniform(0.0, 1.0, size=(m, 1))
            query = rng.uniform(-1.0, 1.0, size=n)
            pred = predict_point(Dataset(pts, labels), query, params)

            assert np.all(pred.neighbor_weights >= 0.0)
            if pred.exit_reason == "converged" and pred.iterations > 0:
                converged += 1
                total = pred.residual_error + pred.weight_sum_gap
                assert total < params.convergence_tolerance
            hull = labels[pred.neighbor_indices]
            # 1e-12 covers accumulated float roundoff in an exact-arithmetic
            # convex combination; zero genuine violations tolerated
            assert np.all(pred.value >= hull.min(axis=0) - 1e-12)
            assert np.all(pred.value <= hull.max(axis=0) + 1e-12)
        _passed(f"constraint suite (1000 queries, {converged} converged, 0 violations)")


class TestBandwidthAnalytic:
    def test_single_neighbor_returns_the_distance(self):
        params = MaxEntParams()
        one_step = math.log(16.0) / (params.sweep_points - 1)
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            d = float(rng.uniform(0.05, 2.0))
            pts = (d * direction).reshape(1, n)
            ds = Dataset(pts, [[1.0]])
            prefilter = filter_convex(np.sum(ds.points ** 2, axis=1), 2.0 * d, params.threshold_filter)
            h_star = optimize_bandwidth(prefilter, params).bandwidth
            true_d = float(np.linalg.norm(pts[0]))
            assert abs(math.log(h_star / true_d)) <= one_step + 1e-9
        _passed("single-neighbor bandwidth = distance (100 cases within one grid step)")


class TestCltEquivalence:
    def test_layups_match_naive_oracle(self):
        from test_laminate import abd_naive

        start = time.monotonic()
        for layup_id in (1, 2):
            layup = standard_layups()[layup_id]
            abd = abd_matrices(layup)
            a, b, d = abd_naive(layup)
            scale_a, scale_d = np.abs(a).max(), np.abs(d).max()
            np.testing.assert_allclose(abd.a, a, rtol=1e-9, atol=1e-12 * scale_a)
            np.testing.assert_allclose(abd.b, b, atol=1e-9 * scale_a)
            np.testing.assert_allclose(abd.d, d, rtol=1e-9, atol=1e-12 * scale_d)
            assert np.abs(abd.b).max() <= 1e-9 * scale_a  # symmetric stacks decouple
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        _passed(f"laminate stiffness vs naive oracle ({elapsed * 1000:.0f} ms)")


class TestSignalIdentities:
    def test_baseline_record_and_affine_invariance(self):
        rng = np.random.default_rng(5)
        channels = tuple(
            ChannelMeasurement(cid, sig, sig)
            for cid in range(1, 253)
            for sig in (rng.normal(size=32),)
        )
        record = MeasurementRecord("CPN", 1, 0, Condition.BASELINE, channels=channels)
        features, mask, target = build_feature_row(
            record, failure_cycles={"CPN": 1000}
        )
        assert target == 0.0
        assert not mask[:504].any()
        np.testing.assert_array_equal(features[:252], np.ones(252))
        np.testing.assert_allclose(features[252:504], np.ones(252), atol=1e-12)

        for _ in range(100):
            x = rng.normal(size=48)
            y = rng.normal(size=48)
            r = correlation_coefficient(x, y)
            a = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(-5.0, 5.0))
            assert abs(correlation_coefficient(a * x + c, y) - r) <= 1e-12
        _passed("signal identities (252 baseline channels, 100 affine checks)")


class TestSyntheticBenchmark:
    def test_entropy_predictor_beats_weighted_knn(self):
        start = time.monotonic()
        out = run_synthetic_benchmark(parallelism=4)
        elapsed = time.monotonic() - start
        assert out["n_train"] + out["n_test"] == 1492
        for k, r2 in out["r2_wknn"].items():
            assert out["r2_maxent"] > r2, f"wknn k={k} scored {r2:.4f} vs {out['r2_maxent']:.4f}"
        assert elapsed < 900.0
        _passed(
            f"synthetic 1492x530 (R2 me={out['r2_maxent']:.4f} > "
            f"wknn max={max(out['r2_wknn'].values()):.4f}, {elapsed:.0f}s)"
        )


class TestDeterminismUnderParallelism:
    def test_toy_suites_identical_across_thread_counts(self):
        reg = ToySpec("regression", 200, 25, 7)
        clf = ToySpec("classification", 200, 25, 7)
        for spec in (reg, clf):
            seq = run_toy_experiment(spec, "maxent", parallelism=1)
            par = run_toy_experiment(spec, "maxent", parallelism=8)
            assert seq.rows == par.rows
            assert seq.summary == par.summary
        _passed("sequential and parallel toy predictions byte-identical")


class TestOnlineLearning:
    def test_append_then_predict_without_refit(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(90, 8))
        table = FeatureTable(rows, rng.uniform(0, 1, 90), tuple(f"f{i}" for i in range(8)))
        store = OnlineStore.from_table(table)
        fresh = rng.normal(size=8)
        store.append_row(fresh, target=0.734)
        pred = store.predict(fresh)
        assert float(np.asarray(pred.value).ravel()[0]) == 0.734
        assert pred.exit_reason == "converged"
        assert store.refit_count == 0
        _passed("online append serves its own target exactly with zero refits")
