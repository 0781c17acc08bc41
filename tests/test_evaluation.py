"""Toy experiment, baseline and metric tests."""

import math

import numpy as np
import pytest

from maxentnn import Dataset, InvalidInputError, ParameterError, evaluation
from maxentnn.evaluation import (
    ToySpec,
    accuracy,
    boundary_distances,
    diagonal_queries,
    make_synthetic_table,
    metrics,
    run_toy_experiment,
    toy_classification_truth,
    toy_regression_truth,
    toy_training_points,
    weighted_knn_predict,
)


class TestTruthFunctions:
    def test_regression_at_origin(self):
        y1, y2 = toy_regression_truth(0.0, 0.0)
        assert y1 == 0.0 and y2 == 0.0

    def test_regression_known_point(self):
        y1, _ = toy_regression_truth(0.3, 1.0)
        assert y1 == pytest.approx(math.cos(1.0) * math.sin(1.0), rel=1e-12)
        assert y1 == pytest.approx(0.45465, abs=1e-5)

    def test_regression_unit_corner(self):
        _, y2 = toy_regression_truth(1.0, 1.0)
        assert y2 == 1.0

    def test_classification_examples(self):
        y1, _ = toy_classification_truth(0.0, 0.5)
        assert y1 == 1
        y1, _ = toy_classification_truth(0.1, 0.0)
        assert y1 == 0
        _, y2 = toy_classification_truth(0.0, 1.0)
        assert y2 == 1  # boundary itself: >= is inclusive

    def test_vectorized(self):
        x = np.linspace(0, 1, 11)
        y1, y2 = toy_regression_truth(x, x)
        assert y1.shape == y2.shape == (11,)


class TestDiagonal:
    def test_spacing(self):
        q = diagonal_queries(50)
        assert q.shape == (50, 2)
        np.testing.assert_array_equal(q[:, 0], q[:, 1])
        assert q[0, 0] == 0.0 and q[-1, 0] == 1.0

    def test_training_points_are_seeded(self):
        spec = ToySpec(seed=7)
        np.testing.assert_array_equal(toy_training_points(spec), toy_training_points(spec))
        assert toy_training_points(spec).shape == (500, 2)


class TestBoundaryDistance:
    def test_point_on_curve_is_zero(self):
        x = 0.13
        pt = np.array([[x, math.sin(5 * math.pi * x)]])
        assert boundary_distances(pt, "sin")[0] < 1e-4

    def test_known_gap(self):
        # nearest curve points to (0.3, 1.0) sit on the arch peaking at
        # (0.5, 1.0); scanning that arch by hand brackets the gap at ~0.19
        pt = np.array([[0.3, 1.0]])
        d = boundary_distances(pt, "sin")[0]
        assert 0.15 < d < 0.25


class TestWeightedKnn:
    def _toy_dataset(self, m=100, seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(m, 2))
        labels = (pts[:, 0] + pts[:, 1]).reshape(-1, 1)
        return Dataset(pts, labels)

    def test_k1_returns_nearest(self):
        ds = self._toy_dataset()
        query = np.array([0.5, 0.5])
        nearest = int(np.argmin(np.linalg.norm(ds.points - query, axis=1)))
        out = weighted_knn_predict(ds, query, k=1)
        np.testing.assert_array_equal(out, ds.labels[nearest])

    def test_equidistant_pair_averages(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        out = weighted_knn_predict(ds, [0.5], k=2)
        assert float(out[0]) == pytest.approx(0.5)

    def test_exact_match_short_circuits(self):
        ds = self._toy_dataset()
        np.testing.assert_array_equal(
            weighted_knn_predict(ds, ds.points[7], k=5), ds.labels[7]
        )

    def test_matches_full_sort_oracle(self):
        ds = self._toy_dataset(m=100, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            query = rng.uniform(0, 1, size=2)
            d = np.linalg.norm(ds.points - query, axis=1)
            order = sorted(range(100), key=lambda i: d[i])[:5]
            w = np.array([1.0 / d[i] for i in order])
            expected = w @ ds.labels[order] / w.sum()
            out = weighted_knn_predict(ds, query, k=5)
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_k_equal_m_with_uniform_distances_is_mean(self):
        # all points on a circle around the query
        angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        labels = np.arange(12.0).reshape(-1, 1)
        ds = Dataset(pts, labels)
        out = weighted_knn_predict(ds, [0.0, 0.0], k=12)
        assert float(out[0]) == pytest.approx(labels.mean())

    def test_classification_vote(self):
        ds = Dataset([[0.0], [0.1], [10.0]], [1, 1, 0], task="classification")
        assert weighted_knn_predict(ds, [0.05], k=3) == 1

    @staticmethod
    def _oracle(ds, query, k):
        """The baseline from numpy's norm and a stable argsort."""
        d = np.linalg.norm(ds.points - query, axis=1)
        # a duplicate is the first row equal to the query, failing that the
        # first whose distance underflowed to zero
        equal = [i for i in range(len(d)) if np.array_equal(ds.points[i], query)]
        zero = np.flatnonzero(d == 0.0).tolist()
        if equal or zero:
            i = (equal or zero)[0]
            return ds.labels[i] if ds.task == "regression" else int(ds.labels[i])
        order = np.argsort(d, kind="stable")[:k]
        w = 1.0 / d[order]
        if ds.task == "regression":
            return (w @ ds.labels[order]) / w.sum()
        votes = {}
        for label, wi in zip(ds.labels[order], w):
            votes[int(label)] = votes.get(int(label), 0.0) + float(wi)
        return min(c for c, v in votes.items() if v == max(votes.values()))

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_norm_oracle_bit_for_bit(self, scale, task):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.0, 1.0, size=(60, 5)) * scale
        labels = rng.normal(size=(60, 2)) if task == "regression" else rng.integers(0, 3, 60)
        ds = Dataset(pts, labels, task)
        queries = [*(rng.uniform(-1.0, 1.0, size=(20, 5)) * scale), pts[7]]  # the last is a row
        for query in queries:
            for k in (1, 4, 60):
                out = weighted_knn_predict(ds, query, k)
                expected = self._oracle(ds, query, k)
                if task == "regression":
                    np.testing.assert_array_equal(out, expected)
                else:
                    assert out == expected

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_a_duplicate_query_matches_the_norm_oracle(self, task):
        # row 0's distance underflows to zero before row 1, which equals the query
        labels = [[10.0], [20.0], [30.0]] if task == "regression" else [1, 2, 3]
        ds = Dataset([[1e-170], [0.0], [0.5]], labels, task)
        for k in (1, 2, 3):
            out, expected = weighted_knn_predict(ds, [0.0], k), self._oracle(ds, [0.0], k)
            if task == "regression":
                np.testing.assert_array_equal(out, expected)
            else:
                assert out == expected

    def test_k_out_of_range(self):
        ds = self._toy_dataset(m=10)
        with pytest.raises(ParameterError):
            weighted_knn_predict(ds, [0.5, 0.5], k=11)
        with pytest.raises(ParameterError):
            weighted_knn_predict(ds, [0.5, 0.5], k=0)


class TestMetrics:
    def test_perfect_predictions(self):
        rep = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rep.r2 == 1.0 and rep.mse == 0.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        rep = metrics(y, np.full(4, y.mean()))
        assert rep.r2 == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        rep = metrics([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert rep.mse == pytest.approx(1.0 / 3.0)
        assert rep.r2 == pytest.approx(0.5)

    def test_r2_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            y = rng.normal(size=20)
            p = rng.normal(size=20)
            assert metrics(y, p).r2 <= 1.0

    def test_constant_truth_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_accuracy(self):
        assert accuracy([1, 0, 1, 1], [1, 1, 1, 1]) == 0.75


class TestToyExperiments:
    def test_regression_is_deterministic(self):
        spec = ToySpec("regression", train_count=60, eval_count=8, seed=5)
        a = run_toy_experiment(spec, "maxent")
        b = run_toy_experiment(spec, "maxent")
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_regression_summary_shape(self):
        spec = ToySpec("regression", train_count=80, eval_count=10, seed=5)
        res = run_toy_experiment(spec, "maxent")
        assert set(res.summary) == {"y1", "y2"}
        assert "r2" in res.summary["y1"] and "mse" in res.summary["y1"]
        assert len(res.rows) == 10

    def test_wknn_method(self):
        spec = ToySpec("regression", train_count=80, eval_count=10, seed=5)
        res = run_toy_experiment(spec, "wknn", k=3)
        assert res.method == "wknn"
        assert res.rows[0]["n_neighbors"] == 3

    @pytest.mark.parametrize("kind", ["regression", "classification"])
    def test_unknown_method_is_rejected_before_any_prediction(self, kind, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a prediction ran")

        monkeypatch.setattr(evaluation, "predict_batch", never)
        monkeypatch.setattr(evaluation, "weighted_knn_batch", never)
        with pytest.raises(ParameterError, match="bogus"):
            run_toy_experiment(ToySpec(kind, train_count=20, eval_count=3), "bogus")

    def test_classification_summary(self):
        spec = ToySpec("classification", train_count=150, eval_count=10, seed=5)
        res = run_toy_experiment(spec, "maxent")
        for name in ("y1", "y2"):
            assert 0.0 <= res.summary[name]["accuracy"] <= 1.0

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_classification_searches_once_for_both_labels(self, seed, monkeypatch):
        spec = ToySpec("classification", train_count=60, eval_count=9, seed=seed)
        train, queries = toy_training_points(spec), diagonal_queries(spec.eval_count)
        full_runs = [evaluation.predict_batch(Dataset(train, lab, "classification"), queries)
                     for lab in toy_classification_truth(train[:, 0], train[:, 1])]
        real, calls = evaluation.predict_batch, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "predict_batch", counted)
        res = run_toy_experiment(spec, "maxent")
        assert len(calls) == 1
        for row, first, second in zip(res.rows, *full_runs):
            assert first.diagnostics() == second.diagnostics()
            assert (row["y1_pred"], row["y2_pred"]) == (first.value, second.value)
            assert (row["n_neighbors"], row["h_star"], row["exit_reason"]) == (
                second.n_neighbors, second.bandwidth, second.exit_reason)

    def test_csv_dump(self, tmp_path):
        spec = ToySpec("regression", train_count=60, eval_count=6, seed=5)
        res = run_toy_experiment(spec, "maxent")
        path = tmp_path / "dump.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,y1_true,y2_true,y1_pred,y2_pred,n_neighbors,h_star,exit_reason"
        assert len(lines) == 7

    def test_interior_tracks_truth_better_than_boundary(self):
        # errors concentrate near the edges of the sampled square
        spec = ToySpec("regression", train_count=500, eval_count=50, seed=7)
        res = run_toy_experiment(spec, "maxent")
        x = np.linspace(0, 1, 50)
        interior = (x >= 0.1) & (x <= 0.9)
        abs_err = np.zeros(50)
        for i, row in enumerate(res.rows):
            abs_err[i] = abs(float(row["y1_true"]) - float(row["y1_pred"])) + abs(
                float(row["y2_true"]) - float(row["y2_pred"])
            )
        assert abs_err[interior].mean() < abs_err[~interior].mean()


class TestSyntheticTable:
    def test_shape_and_target_range(self):
        x, y, planted = make_synthetic_table(n_rows=200, n_cols=40, n_planted=8, seed=0)
        assert x.shape == (200, 40)
        assert y.shape == (200,)
        assert y.min() == 0.0 and y.max() == 1.0
        assert len(planted) == 8

    def test_deterministic(self):
        a = make_synthetic_table(n_rows=50, n_cols=20, seed=4)[0]
        b = make_synthetic_table(n_rows=50, n_cols=20, seed=4)[0]
        np.testing.assert_array_equal(a, b)
