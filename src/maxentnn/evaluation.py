"""Baselines, metrics, and the toy/synthetic experiment harness.

The toy problems scatter seeded uniform points over the unit square and ask
the predictors for the 50 points equally spaced along the diagonal
x1 = x2: a two-output smooth regression and two binary classifications
whose decision boundaries oscillate across the square. The synthetic
benchmark builds a wide low-intrinsic-dimension table with a smooth planted
target for comparing the entropy predictor against weighted k-NN.

The harness predicts the way the product does: the synthetic table goes
through ``OnlineStore.from_table`` as served tables do, and weighted k-NN
ranks rows by the predictor's own squared-distance scan.

All randomness goes through numpy's default_rng (PCG64), so a seed pins
every generated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    MaxEntParams,
    Prediction,
    _as_point,
    _duplicate,
    _sq_distances,
    predict_batch,
    predict_classification,
)
from .errors import InvalidInputError, ParameterError
from .pipeline import FeatureTable, OnlineStore, write_csv

__all__ = [
    "ToySpec",
    "MetricReport",
    "toy_regression_truth",
    "toy_classification_truth",
    "diagonal_queries",
    "boundary_distances",
    "weighted_knn_predict",
    "weighted_knn_batch",
    "metrics",
    "accuracy",
    "run_toy_experiment",
    "ToyExperimentResult",
    "make_synthetic_table",
    "run_synthetic_benchmark",
]


def toy_regression_truth(x1, x2):
    """Two smooth targets over the unit square: cos(x1/0.3)*sin(x2) and x1*x2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return np.cos(x1 / 0.3) * np.sin(x2), x1 * x2


def toy_classification_truth(x1, x2):
    """Two binary labels: x2 >= sin(5 pi x1) and x2 >= cos(5 pi x1)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y1 = (x2 >= np.sin(5.0 * np.pi * x1)).astype(np.int64)
    y2 = (x2 >= np.cos(5.0 * np.pi * x1)).astype(np.int64)
    return y1, y2


@dataclass(frozen=True)
class ToySpec:
    """Configuration of one toy experiment."""

    kind: str = "regression"
    train_count: int = 500
    eval_count: int = 50
    seed: int = 7

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise ParameterError(f"kind must be regression or classification, got {self.kind!r}")
        if self.train_count < 1:
            raise ParameterError(f"train_count must be >= 1, got {self.train_count}")
        if self.eval_count < 1:
            raise ParameterError(f"eval_count must be >= 1, got {self.eval_count}")


def diagonal_queries(count: int) -> np.ndarray:
    """``count`` points equally spaced along x1 = x2 from (0,0) to (1,1)."""
    t = np.linspace(0.0, 1.0, count)
    return np.column_stack([t, t])


def toy_training_points(spec: ToySpec) -> np.ndarray:
    """Seeded uniform scatter over the unit square."""
    rng = np.random.default_rng(spec.seed)
    return rng.random((spec.train_count, 2))


def boundary_distances(points: np.ndarray, which: str, grid: int = 100001) -> np.ndarray:
    """Distance of each point to the classification decision boundary.

    The boundary is the truth curve (a, f(a)) clipped to the unit square,
    f = sin(5 pi a) or cos(5 pi a); distances are evaluated against a dense
    parameter grid.
    """
    fn = np.sin if which == "sin" else np.cos
    a = np.linspace(0.0, 1.0, grid)
    f = fn(5.0 * np.pi * a)
    inside = (f >= 0.0) & (f <= 1.0)
    curve = np.column_stack([a[inside], f[inside]])
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        d2 = np.sum((curve - p) ** 2, axis=1)
        out[i] = math.sqrt(float(d2.min()))
    return out


def weighted_knn_predict(dataset: Dataset, query, k: int):
    """Inverse-distance weighted k-nearest-neighbor prediction.

    The query is checked as ``predict_point`` checks it: a 1-D vector of
    finite coordinates, one per feature. A query that duplicates a row
    (see ``core._duplicate``) returns that row's label directly. Regression
    averages the k nearest labels with weights 1/d; classification takes
    the 1/d-weighted vote, ties broken by the smallest class id.
    """
    if not (1 <= k <= dataset.n_points):
        raise ParameterError(f"k must lie in 1..{dataset.n_points}, got {k}")
    q = _as_point(query, dataset.n_features)
    d2 = _sq_distances(dataset.points, q)
    i = _duplicate(dataset.points, q, d2)
    if i is not None:
        return dataset.labels[i].copy() if dataset.task == "regression" else int(dataset.labels[i])

    distances = np.sqrt(d2)
    order = np.argsort(distances, kind="stable")[:k]
    weights = 1.0 / distances[order]
    if dataset.task == "regression":
        return (weights @ dataset.labels[order]) / weights.sum()
    votes: dict[int, float] = {}
    for label, w in zip(dataset.labels[order], weights):
        votes[int(label)] = votes.get(int(label), 0.0) + float(w)
    best = max(votes.values())
    return min(c for c, v in votes.items() if v == best)


def weighted_knn_batch(dataset: Dataset, queries, k: int) -> list:
    return [weighted_knn_predict(dataset, q, k) for q in np.asarray(queries, dtype=float)]


@dataclass(frozen=True)
class MetricReport:
    """Coefficient of determination, mean squared error, raw residuals."""

    r2: float
    mse: float
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return int(self.residuals.size)


def metrics(y_true, y_pred) -> MetricReport:
    """Standard R^2 and MSE; R^2 is undefined for a constant truth vector."""
    t = np.asarray(y_true, dtype=float).ravel()
    p = np.asarray(y_pred, dtype=float).ravel()
    if t.size == 0 or t.size != p.size:
        raise InvalidInputError(f"need equal nonzero lengths, got {t.size} and {p.size}")
    residuals = t - p
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise InvalidInputError("R^2 is undefined for a constant truth vector")
    return MetricReport(1.0 - ss_res / ss_tot, float(np.mean(residuals**2)), residuals)


def accuracy(y_true, y_pred) -> float:
    t = np.asarray(y_true).ravel()
    p = np.asarray(y_pred).ravel()
    if t.size == 0 or t.size != p.size:
        raise InvalidInputError(f"need equal nonzero lengths, got {t.size} and {p.size}")
    return float(np.mean(t == p))


@dataclass
class ToyExperimentResult:
    """Per-point dump plus summary metrics of one toy run."""

    spec: ToySpec
    method: str
    rows: list
    summary: dict

    _DUMP_COLUMNS = (
        "x1", "x2", "y1_true", "y2_true", "y1_pred", "y2_pred",
        "n_neighbors", "h_star", "exit_reason",
    )

    def to_csv(self, path) -> None:
        cols = self._DUMP_COLUMNS
        write_csv(path, cols, ([row[c] for c in cols] for row in self.rows))

    def metrics_json(self) -> dict:
        return {"kind": self.spec.kind, "method": self.method,
                "seed": self.spec.seed, **self.summary}


def _predict_all(dataset: Dataset, queries: np.ndarray, method: str, k: int | None = None,
                 params: MaxEntParams | None = None, parallelism: int = 1, more_labels=()):
    """Predict every query with ``method``; returns the ``(n, n_y)`` values
    and one ``(n_neighbors, h_star, exit_reason)`` triple per query.

    ``"maxent"`` raises on the first failed query; ``"wknn"`` uses ``k``
    neighbors and has no bandwidth or exit reason.

    ``more_labels`` are further class-label arrays over the dataset's
    points, each predicted as one more value column. Neighbor selection,
    bandwidth and weights never read the labels, so ``"maxent"`` searches
    once and votes each of them from the neighbors that search chose, as a
    search over that label's ``Dataset`` would.
    """
    if method == "maxent":
        results = predict_batch(dataset, queries, params, parallelism)
        for i, res in enumerate(results):
            if not isinstance(res, Prediction):
                raise InvalidInputError(f"query {i} failed: {res.message}")
        values = [res.value for res in results]
        more = [[_vote(lab, dataset.points, res.neighbor_indices, q)
                 for res, q in zip(results, queries)] for lab in more_labels]
        diag = [(res.n_neighbors, res.bandwidth, res.exit_reason) for res in results]
    elif method == "wknn":
        values = weighted_knn_batch(dataset, queries, k)
        more = [weighted_knn_batch(Dataset(dataset.points, lab, dataset.task), queries, k)
                for lab in more_labels]
        diag = [(k, None, None)] * len(values)
    else:
        raise ParameterError(f"unknown method {method!r}")
    values = np.array([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])
    return np.column_stack([values, *more]), diag


def _vote(labels, points, indices, query) -> int:
    """The class ``predict_point`` votes from the neighbors ``indices``,
    with the nearest member breaking a tie."""
    return predict_classification(labels[indices], np.sqrt(_sq_distances(points[indices], query)))


def run_toy_experiment(
    spec: ToySpec,
    method: str = "maxent",
    k: int = 5,
    params: MaxEntParams | None = None,
    parallelism: int = 1,
) -> ToyExperimentResult:
    """Generate seeded toy data, predict the diagonal, report metrics.

    ``method`` is ``"maxent"`` or ``"wknn"`` (which uses ``k`` neighbors).
    Regression reports R^2/MSE per output; classification reports accuracy
    per output. Each per-point row maps the dump's columns to their values.
    """
    train = toy_training_points(spec)
    queries = diagonal_queries(spec.eval_count)
    if spec.kind == "regression":
        truth_fn, cast = toy_regression_truth, float
        labels = [np.column_stack(truth_fn(train[:, 0], train[:, 1]))]
    else:
        # one search serves both labels: the second is voted from the first's neighbors
        truth_fn, cast = toy_classification_truth, int
        labels = truth_fn(train[:, 0], train[:, 1])
    truth = np.column_stack(truth_fn(queries[:, 0], queries[:, 1]))

    preds, diag = _predict_all(Dataset(train, labels[0], spec.kind), queries, method, k,
                               params, parallelism, labels[1:])

    rows = [
        dict(zip(ToyExperimentResult._DUMP_COLUMNS,
                 (*map(float, q), *map(cast, t), *map(cast, p), *d)))
        for q, t, p, d in zip(queries, truth, preds, diag)
    ]
    summary = {}
    for col, name in enumerate(("y1", "y2")):
        if spec.kind == "regression":
            rep = metrics(truth[:, col], preds[:, col])
            scores = {"r2": rep.r2, "mse": rep.mse}
        else:
            scores = {"accuracy": accuracy(truth[:, col], preds[:, col])}
        summary[name] = {**scores, "n": spec.eval_count}
    return ToyExperimentResult(spec, method, rows, summary)


def make_synthetic_table(
    n_rows: int = 1492,
    n_cols: int = 530,
    n_latent: int = 5,
    n_planted: int = 15,
    n_groups: int = 12,
    target_noise: float = 0.04,
    feature_noise: float = 0.002,
    seed: int = 2024,
):
    """A wide table with the neighborhood structure of repeated inspections.

    Rows belong to ``n_groups`` groups, each a smooth curve through a
    low-dimensional latent space (one specimen re-measured as its state
    evolves). Along every curve sit inspection events, and each event
    yields a small, randomly sized bundle of near-replicate rows. Every
    column mixes the latent coordinates linearly plus per-cell noise, so
    wide-space distances mirror the latent geometry: replicate bundles are
    tight, consecutive events clearly separated, groups far apart. Because
    bundle sizes vary, no single neighbor count suits every query, which is
    exactly what a per-query neighborhood selector should exploit. The
    target is a smooth nonlinear function of the first ``n_planted``
    columns plus Gaussian noise, min-max squashed to [0, 1].
    Returns (X, y, planted_indices).
    """
    rng = np.random.default_rng(seed)
    events_per_group = max(2, n_rows // (n_groups * 6))
    latents = []
    while len(latents) < n_rows:
        for _ in range(n_groups):
            base = rng.uniform(-1.0, 1.0, size=n_latent)
            heading = rng.normal(size=n_latent)
            heading *= 1.5 / np.linalg.norm(heading)
            bend = rng.normal(size=n_latent)
            bend *= 0.4 / np.linalg.norm(bend)
            t = np.sort(rng.beta(0.7, 1.8, size=events_per_group))
            centers = base + np.outer(t, heading) + np.outer(np.sin(np.pi * t), bend)
            for center in centers:
                replicas = int(rng.integers(1, 13))
                latents.extend([center] * replicas)
                if len(latents) >= n_rows:
                    break
            if len(latents) >= n_rows:
                break
    z = np.asarray(latents[:n_rows])
    mix = rng.normal(size=(n_latent, n_cols)) / math.sqrt(n_latent)
    x = z @ mix + feature_noise * rng.normal(size=(n_rows, n_cols))

    planted = np.arange(n_planted)
    p = x[:, planted]
    raw = np.zeros(n_rows)
    for j in range(n_planted):
        raw += math.sin(1.0 + 0.5 * j) * np.sin(5.0 * p[:, j] + 0.3 * j)
    for j in range(0, n_planted - 1, 2):
        raw += 0.8 * p[:, j] * p[:, j + 1]
    raw += target_noise * rng.normal(size=n_rows)

    lo, hi = raw.min(), raw.max()
    y = (raw - lo) / (hi - lo)
    return x, y, planted


def run_synthetic_benchmark(
    seed: int = 2024,
    ks=(1, 5, 10, 20, 40, 80),
    test_fraction: float = 0.2,
    params: MaxEntParams | None = None,
    parallelism: int = 1,
) -> dict:
    """Test-set R^2 of the entropy predictor vs weighted k-NN on synthetic data.

    Both predictors see the same min-max scaled train/test split. Returns
    {"r2_maxent": ..., "r2_wknn": {k: ...}, "n_train": ..., "n_test": ...}.
    """
    x, y, _ = make_synthetic_table(seed=seed)
    m = x.shape[0]
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(m)
    n_test = int(round(m * test_fraction))
    test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])

    columns = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    store = OnlineStore.from_table(FeatureTable(x[train_idx], y[train_idx], columns))
    ds = store.snapshot()
    x_test, y_test = store.normalize(x[test_idx]), y[test_idx]

    preds, _ = _predict_all(ds, x_test, "maxent", params=params, parallelism=parallelism)
    report = metrics(y_test, preds)
    out = {
        "r2_maxent": report.r2,
        "mse_maxent": report.mse,
        "r2_wknn": {},
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
    }
    for k in ks:
        out["r2_wknn"][int(k)] = metrics(y_test, _predict_all(ds, x_test, "wknn", k)[0]).r2
    return out
