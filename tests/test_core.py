"""Unit tests for the entropy-tuned neighbor predictor."""

import copy
import math
import os
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

import maxentnn.core
from maxentnn import (
    ConvexSubset,
    Dataset,
    DegenerateNeighborhoodError,
    InvalidInputError,
    MaxEntParams,
    ParameterError,
    Prediction,
    PredictionFailure,
    filter_convex,
    optimize_bandwidth,
    predict_batch,
    predict_classification,
    predict_point,
    predict_regression,
)
from maxentnn.core import (
    WeightSolution,
    _checked_rows,
    _neighborhood,
    _spectral_bound,
    _with_ones,
    solve_weights,
)
from maxentnn.evaluation import weighted_knn_predict
from maxentnn.pipeline import FeatureTable, OnlineStore

E_INV = math.exp(-1.0)


def _sq_distances(points, query) -> np.ndarray:
    return np.sum((np.asarray(points, dtype=float) - np.asarray(query, dtype=float)) ** 2, axis=1)


def _similarities(sq_distances, h: float) -> np.ndarray:
    # a threshold below every similarity here keeps all rows in input order
    return filter_convex(sq_distances, h, threshold=1e-300).rbf_values


class TestRbfValue:
    """The Gaussian similarities ``filter_convex`` reports as ``rbf_values``."""

    def test_zero_distance_is_one(self):
        assert _similarities(_sq_distances([[1.0, 2.0]], [1.0, 2.0]), h=0.3)[0] == 1.0

    def test_distance_equal_to_bandwidth(self):
        sims = _similarities(_sq_distances([[2.0]], [0.0]), h=2.0)
        assert sims[0] == pytest.approx(E_INV, rel=1e-12)

    def test_known_point(self):
        # distance 0.5 at h = 0.5 forces the exponent to -1
        sims = _similarities(_sq_distances([[0.3, 0.4]], [0.0, 0.0]), h=0.5)
        assert sims[0] == pytest.approx(E_INV, rel=1e-12)

    def test_bad_bandwidth(self):
        with pytest.raises(ParameterError):
            filter_convex(np.array([1.0]), h=0.0, threshold=0.5)
        with pytest.raises(ParameterError):
            filter_convex(np.array([1.0]), h=-1.0, threshold=0.5)

    def test_nonfinite_input(self):
        # the query is checked once, before its distances are taken
        ds = Dataset([[1.0], [2.0]], [[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            predict_point(ds, [np.nan])
        with pytest.raises(InvalidInputError):
            predict_point(ds, [0.0, 0.0])


class TestFilterConvex:
    def test_tiny_threshold_keeps_everything(self):
        rng = np.random.default_rng(0)
        pts = rng.random((20, 2))
        subset = filter_convex(_sq_distances(pts, [0.5, 0.5]), h=1.0, threshold=1e-12)
        assert subset.size == 20

    def test_threshold_cut(self):
        # e^(-9) is below 0.01, e^(-4) is above it
        subset = filter_convex(np.array([9.0, 4.0]), h=1.0, threshold=0.01)
        assert list(subset.indices) == [1]
        assert list(subset.sq_distances) == [4.0]

    def test_matches_exhaustive_reevaluation(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(20, 3))
        query = rng.uniform(-1, 1, size=3)
        h, threshold = 0.8, 0.05
        subset = filter_convex(_sq_distances(pts, query), h, threshold)
        expected = [
            i for i in range(20)
            if math.exp(-np.sum((pts[i] - query) ** 2) / h**2) > threshold
        ]
        assert list(subset.indices) == expected
        for idx, val in zip(subset.indices, subset.rbf_values):
            assert val > threshold
            direct = math.exp(-np.sum((pts[idx] - query) ** 2) / h**2)
            assert val == pytest.approx(direct, rel=1e-12)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            filter_convex(np.array([0.0]), h=1.0, threshold=1.0)
        with pytest.raises(ParameterError):
            filter_convex(np.array([0.0]), h=0.0, threshold=0.5)

    def test_numpy_scalar_bandwidth_is_read_as_a_python_float(self):
        d2 = np.random.default_rng(3).uniform(0.0, 2.0, 40)
        subset = filter_convex(d2, np.float32(0.5), 0.01)
        assert type(subset.bandwidth) is float
        ref = filter_convex(d2, float(np.float32(0.5)), 0.01)
        np.testing.assert_array_equal(subset.indices, ref.indices)
        np.testing.assert_array_equal(subset.rbf_values, ref.rbf_values)
        for h in (True, np.bool_(True)):
            with pytest.raises(ParameterError):
                filter_convex(d2, h, 0.01)

    @pytest.mark.parametrize("h", [np.float16(0.7), np.float32(0.7), np.float64(0.7),
                                   np.longdouble(0.7), np.int8(1), np.int64(1), np.uint8(1)],
                             ids=lambda h: type(h).__name__)
    def test_every_numpy_bandwidth_filters_as_its_python_float(self, h):
        d2 = np.random.default_rng(3).uniform(0.0, 2.0, 40)
        subset = filter_convex(d2, h, 0.01)
        ref = filter_convex(d2, float(h), 0.01)
        assert type(subset.bandwidth) is float and subset.bandwidth == ref.bandwidth
        np.testing.assert_array_equal(subset.indices, ref.indices)
        np.testing.assert_array_equal(subset.rbf_values, ref.rbf_values)
        assert subset.rbf_values.dtype == np.float64

    def test_rejects_malformed_sq_distances(self):
        for bad in (np.ones((2, 2)), np.array([0.5, np.nan]), np.array([0.5, np.inf]),
                    np.array([0.5, -1e-300])):
            with pytest.raises(InvalidInputError):
                filter_convex(bad, h=1.0, threshold=0.01)

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 129, 530])
    def test_member_distances_equal_a_recomputation_on_the_members(self, width):
        # predict_point takes every row's squared distance once and hands the
        # members' entries on; they must be the bits a per-subset recomputation
        # gives, across NumPy's pairwise-summation block sizes
        rng = np.random.default_rng(width)
        points = rng.uniform(-1, 1, size=(300, width))
        query = rng.uniform(-1, 1, size=width)
        d2 = np.sum((points - query) ** 2, axis=1)
        # admits the rows closer than the median distance
        subset = filter_convex(d2, h=math.sqrt(np.median(d2) / math.log(2.0)), threshold=0.5)
        assert 0 < subset.size < 300
        recomputed = np.sum((points[subset.indices] - query) ** 2, axis=1)
        assert np.all(subset.sq_distances == recomputed)


class TestMeanEntropy:
    """The sweep's score, the mean Gibbs entropy -mean(p ln p) of the admitted
    similarities, seen through the bandwidth it selects."""

    def test_certain_member_contributes_nothing(self):
        # a coincident member has p = 1 at every bandwidth, so -p ln p = 0:
        # adding it leaves the grid and the winner unchanged
        params = MaxEntParams()
        alone = optimize_bandwidth(filter_convex(np.array([0.49]), 2.0, 0.01), params)
        with_certain = optimize_bandwidth(filter_convex(np.array([0.0, 0.49]), 2.0, 0.01), params)
        assert with_certain.bandwidth == alone.bandwidth
        assert list(with_certain.indices) == [0, 1]

    def test_maximum_at_one_over_e(self):
        # -p ln p peaks at p = 1/e: a lone member's winning similarity sits
        # within one grid step of it
        params = MaxEntParams()
        d = 0.37
        subset = optimize_bandwidth(filter_convex(np.array([d * d]), 2.0 * d, 0.01), params)
        h_error = abs(math.log(-math.log(subset.rbf_values[0]))) / 2.0
        assert h_error <= _one_grid_step(params, d, d) + 1e-12

    def test_score_is_the_mean_over_admitted_members(self):
        # members at distances 1 and 5: a sum of entropies would grow the
        # bandwidth to admit the far member (about h = 4.6); the mean halves
        # that score, so the winner stays at the near member's distance
        params = MaxEntParams()
        subset = optimize_bandwidth(filter_convex(np.array([1.0, 25.0]), 10.0, 1e-300), params)
        assert list(subset.indices) == [0]
        assert abs(math.log(subset.bandwidth)) <= _one_grid_step(params, 1.0, 5.0) + 1e-12


def _one_grid_step(params: MaxEntParams, d_min: float, d_max: float) -> float:
    # log spacing of the sweep between 0.25*d_min and 4*d_max
    ratio = (4.0 * d_max) / (0.25 * d_min)
    return math.log(ratio) / (params.sweep_points - 1)


class TestOptimizeBandwidth:
    def test_single_neighbor_optimum_is_distance(self):
        params = MaxEntParams()
        d = 0.37
        prefilter = filter_convex(_sq_distances([[d, 0.0]], [0.0, 0.0]), h=2.0 * d, threshold=0.01)
        subset = optimize_bandwidth(prefilter, params)
        assert subset.size == 1
        assert abs(math.log(subset.bandwidth / d)) <= _one_grid_step(params, d, d) + 1e-12

    def test_two_equidistant_neighbors(self):
        params = MaxEntParams()
        d = 0.8
        d2 = _sq_distances([[d, 0.0], [-d, 0.0]], [0.0, 0.0])
        prefilter = filter_convex(d2, h=2.0 * d, threshold=0.01)
        subset = optimize_bandwidth(prefilter, params)
        assert subset.size == 2
        assert abs(math.log(subset.bandwidth / d)) <= _one_grid_step(params, d, d) + 1e-12

    def test_matches_finer_grid_search(self):
        params = MaxEntParams()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(50, 2))
        query = np.array([0.1, -0.2])
        prefilter = filter_convex(_sq_distances(pts, query), h=1.0, threshold=params.threshold_filter)
        h_star = optimize_bandwidth(prefilter, params).bandwidth

        # brute-force oracle: same bracket, 10x finer, entropy recomputed
        # from scratch as -mean(p ln p) over the admitted similarities
        d = np.linalg.norm(pts[prefilter.indices] - query, axis=1)
        lo, hi = 0.25 * d[d > 0].min(), 4.0 * d.max()
        best_h, best_entropy = None, -np.inf
        for h in np.geomspace(lo, hi, params.sweep_points * 10):
            p = np.exp(-(d / h) ** 2)
            p = p[p > params.threshold_entropy]
            if p.size == 0:
                continue
            e = np.mean(-p * np.log(p))
            if e > best_entropy:
                best_h, best_entropy = h, e
        step = _one_grid_step(params, d[d > 0].min(), d.max())
        assert abs(math.log(h_star / best_h)) <= step + 1e-12

    def test_empty_prefilter_raises(self):
        empty = ConvexSubset(np.array([], dtype=int), np.array([]), np.array([]), 1.0)
        with pytest.raises(DegenerateNeighborhoodError):
            optimize_bandwidth(empty, MaxEntParams())

    def test_returns_the_prefilter_members_refiltered(self):
        rng = np.random.default_rng(8)
        d2 = rng.uniform(0.0, 2.0, size=40)
        prefilter = filter_convex(d2, h=1.5, threshold=0.01)
        subset = optimize_bandwidth(prefilter, MaxEntParams())
        refiltered = filter_convex(d2, subset.bandwidth, MaxEntParams().threshold_entropy)
        np.testing.assert_array_equal(subset.indices, refiltered.indices)
        np.testing.assert_array_equal(subset.sq_distances, d2[subset.indices])


def _solve(pts, q, u0, params: MaxEntParams) -> WeightSolution:
    """``solve_weights`` over the ``(k, n)`` rows ``pts``, prepared as
    ``predict_point`` prepares a neighborhood."""
    return solve_weights(_neighborhood(_with_ones(np.asarray(pts, dtype=float))),
                         np.asarray(q, dtype=float), u0, params)


class TestSolveWeights:
    def test_is_no_package_export(self):
        # only predict_point calls the solve, which stays in maxentnn.core
        for name in ("solve_weights", "WeightSolution"):
            assert not hasattr(maxentnn, name)
            assert name not in maxentnn.__all__ and name not in maxentnn.core.__all__
        assert maxentnn.core.solve_weights is solve_weights

    def test_midpoint_splits_evenly(self):
        pts = np.array([[0.0], [1.0]])
        init = np.exp(-np.array([0.25, 0.25]))  # similarities at h = 1
        sol = _solve(pts, [0.5], init, MaxEntParams())
        assert sol.converged
        assert sol.residual_error + sol.weight_sum_gap < 0.01
        np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=0.01)

    def test_barycentric_coordinates_match_nnls_oracle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        query = np.array([0.2, 0.3])
        init = np.exp(-np.sum((pts - query) ** 2, axis=1))
        params = MaxEntParams(convergence_tolerance=1e-9, it_local_min=200_000)
        sol = _solve(pts, query, init, params)
        assert sol.converged

        kmat = np.vstack([pts.T, np.ones(3)])
        oracle, _ = nnls(kmat, np.append(query, 1.0))
        np.testing.assert_allclose(sol.weights, oracle, atol=1e-5)
        np.testing.assert_allclose(sol.weights, [0.5, 0.2, 0.3], atol=1e-5)

    def test_weights_stay_nonnegative(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, (8, 3))
        query = rng.uniform(-1, 1, 3)
        init = np.exp(-np.sum((pts - query) ** 2, axis=1))
        sol = _solve(pts, query, init, MaxEntParams())
        assert np.all(sol.weights >= 0.0)


def _full_loop_solve(pts, q, u0, params: MaxEntParams, fresh_residual: bool = False) -> WeightSolution:
    """The weight solve as specified: every iteration up to the caps is run.

    A copy of ``solve_weights``' loop, with its convergence test and its
    duality-bound check but without the exit at an exact fixed point; the
    tests below hold the solver to it bit for bit. ``fresh_residual``
    computes the residual at the extrapolated point as the product
    ``K z - b`` instead of from the two residuals already at hand, the same
    value up to rounding.
    """
    pts = np.asarray(pts, dtype=float)
    q = np.asarray(q, dtype=float)
    k = pts.shape[0]
    d2 = np.sum((pts - q) ** 2, axis=1)
    # a duplicate is the first row equal to q, failing that the first whose
    # d² underflowed to zero
    equal = [i for i in range(k) if np.array_equal(pts[i], q)]
    zero = np.flatnonzero(d2 == 0.0).tolist()
    if equal or zero:
        w = np.zeros(k)
        w[(equal or zero)[0]] = 1.0
        return WeightSolution(w, 0.0, 0.0, 0, True)

    kmat = np.vstack([pts.T, np.ones((1, k))])
    b = np.append(q, 1.0)
    step = 1.0 / _spectral_bound(kmat)
    kt = kmat.T
    q_norm = float(np.linalg.norm(q))
    error_scale = min(1.0, 1.0 / q_norm) if q_norm > 0.0 else 1.0

    u = np.maximum(u0, 0.0)
    r = kmat @ u - b
    objective = float(r @ r)
    z = u
    rz = r
    momentum = 1.0
    residual = math.inf
    gap = math.inf
    converged = False
    extrapolated = False
    iterations = 0
    max_iterations = params.it_local_min + 1
    for iterations in range(1, max_iterations + 1):
        candidate = np.maximum(z - step * (kt @ rz), 0.0)
        r_new = kmat @ candidate - b
        obj_new = float(r_new @ r_new)
        if obj_new > objective:
            # restart from the last accepted point without momentum
            momentum = 1.0
            candidate = np.maximum(u - step * (kt @ r), 0.0)
            r_new = kmat @ candidate - b
            obj_new = float(r_new @ r_new)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        z = candidate + beta * (candidate - u)
        rz = kmat @ z - b if fresh_residual else r_new + beta * (r_new - r)
        u, r, objective, momentum = candidate, r_new, obj_new, momentum_next

        head = r[:-1]
        diff = math.sqrt(float(head @ head))
        residual = diff / q_norm if q_norm > 0.0 else diff
        gap = abs(float(r[-1]))
        if residual + gap < params.convergence_tolerance and iterations > params.it_convergence:
            converged = True
            break
        if iterations % params.it_convergence == 0:
            y = -r
            y[-1] += float((kt @ r).min())
            y_norm = float(np.linalg.norm(y))
            if y_norm > 0.0 and error_scale * float(b @ y) / y_norm >= params.convergence_tolerance:
                extrapolated = True
                break

    return WeightSolution(u, residual, gap, iterations, converged, extrapolated)


def _random_problems(k: int):
    """24 seeded solves over k rows: near a row, inside the rows, anywhere."""
    rng = np.random.default_rng(100 + k)
    for trial in range(24):
        d = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, (k, d))
        if trial % 3 == 0:
            q = pts[0] + rng.normal(scale=10.0 ** rng.uniform(-6, -2), size=d)
        elif trial % 3 == 1:
            q = pts.mean(axis=0) + rng.normal(scale=0.1, size=d)
        else:
            q = rng.uniform(-2, 2, d)
        u0 = rng.uniform(0.01, 1.0, k)
        params = MaxEntParams(
            it_convergence=int(rng.integers(1, 40)),
            it_local_min=int(rng.integers(1, 150)),
            convergence_tolerance=float(10.0 ** rng.uniform(-4, -1)),
        )
        yield pts, q, u0, params


class _StepCounter:
    """Stands in for numpy in ``maxentnn.core`` and counts projected steps."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        self.steps += 1
        return np.maximum(*args, **kwargs)


class TestFixedPointExit:
    """A solve that reaches an exact fixed point reports the full loop's result."""

    @staticmethod
    def _assert_same(sol: WeightSolution, ref: WeightSolution):
        assert np.array_equal(sol.weights, ref.weights)
        assert sol.residual_error == ref.residual_error
        assert sol.weight_sum_gap == ref.weight_sum_gap
        assert sol.iterations == ref.iterations
        assert sol.converged == ref.converged
        assert sol.extrapolated == ref.extrapolated

    def _solve_counting_steps(self, monkeypatch, pts, q, u0, params):
        counter = _StepCounter()
        with monkeypatch.context() as m:
            m.setattr(maxentnn.core, "np", counter)
            sol = _solve(pts, q, u0, params)
        return sol, counter.steps

    def test_one_neighbor_rounds_match_the_full_loop(self, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 1)))
        q = [0.9, 0.95]
        pred = predict_point(ds, q)
        monkeypatch.setattr(maxentnn.core, "solve_weights",
                            lambda nb, *args: _full_loop_solve(nb.kmat[:-1].T, *args))
        ref = predict_point(ds, q)
        assert pred.diagnostics() == ref.diagnostics()
        assert (ref.n_neighbors, ref.rounds, ref.iterations) == (1, 2, 20)
        np.testing.assert_array_equal(pred.value, ref.value)
        np.testing.assert_array_equal(pred.neighbor_indices, ref.neighbor_indices)
        np.testing.assert_array_equal(pred.neighbor_weights, ref.neighbor_weights)

    def test_one_neighbor_solve_stops_early(self, monkeypatch):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (30, 2))
        q = np.array([0.9, 0.95])
        row = pts[[np.argmin(_sq_distances(pts, q))]]
        u0 = np.exp(-_sq_distances(row, q) / 0.01)
        params = MaxEntParams()
        sol, steps = self._solve_counting_steps(monkeypatch, row, q, u0, params)
        self._assert_same(sol, _full_loop_solve(row, q, u0, params))
        assert not sol.converged and sol.extrapolated
        assert sol.iterations == params.it_convergence
        assert steps < 50

    def test_fixed_point_reports_the_next_bound_check(self, monkeypatch):
        # the iterate stops moving after about 20 steps; the full loop runs on
        # to the first multiple of it_convergence, where the bound stops it
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (30, 2))
        q = np.array([0.9, 0.95])
        row = pts[[np.argmin(_sq_distances(pts, q))]]
        u0 = np.exp(-_sq_distances(row, q) / 0.01)
        params = MaxEntParams(it_convergence=400)
        sol, steps = self._solve_counting_steps(monkeypatch, row, q, u0, params)
        self._assert_same(sol, _full_loop_solve(row, q, u0, params))
        assert sol.extrapolated and sol.iterations == 400
        assert steps < 50

    def test_uncertified_fixed_point_runs_to_the_cap(self, monkeypatch):
        # far from the origin the bound is scaled by 1/||q|| and stays under
        # the tolerance, while the weight-sum gap alone is about 0.05
        row = np.array([[10.0, 0.0]])
        q = np.array([10.5, 0.0])
        params = MaxEntParams()
        sol, steps = self._solve_counting_steps(monkeypatch, row, q, np.array([0.9]), params)
        self._assert_same(sol, _full_loop_solve(row, q, np.array([0.9]), params))
        assert sol.residual_error + sol.weight_sum_gap > params.convergence_tolerance
        assert not sol.converged and not sol.extrapolated
        assert sol.iterations == params.it_local_min + 1
        assert steps < 50

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_random_problems_match_the_full_loop(self, k):
        for pts, q, u0, params in _random_problems(k):
            self._assert_same(_solve(pts, q, u0, params), _full_loop_solve(pts, q, u0, params))

    def test_fixed_point_under_tolerance_converges_after_it_convergence(self, monkeypatch):
        row = np.array([[0.3, -0.2]])
        q = row[0] + 1e-4
        params = MaxEntParams()
        sol, steps = self._solve_counting_steps(monkeypatch, row, q, np.array([0.9]), params)
        self._assert_same(sol, _full_loop_solve(row, q, np.array([0.9]), params))
        assert sol.converged
        assert sol.iterations == params.it_convergence + 1
        # the iterate stopped moving before the minimum iteration count
        assert steps <= params.it_convergence

    @pytest.mark.parametrize("it_local_min", [28, 29, 30, 31])
    def test_iteration_cap_at_or_below_it_convergence(self, it_local_min):
        row = np.array([[0.3, -0.2]])
        q = row[0] + 1e-4
        params = MaxEntParams(it_convergence=30, it_local_min=it_local_min)
        sol = _solve(row, q, np.array([0.9]), params)
        self._assert_same(sol, _full_loop_solve(row, q, np.array([0.9]), params))
        # the full loop converges only if it runs past it_convergence
        assert sol.converged == (it_local_min >= 30)
        assert sol.iterations == (31 if it_local_min >= 30 else it_local_min + 1)


class TestResidualUpdate:
    """``K z - b`` formed from two residuals differs from the product by rounding only."""

    @staticmethod
    def _assert_close(sol: WeightSolution, ref: WeightSolution, atol: float = 1e-12):
        assert (sol.iterations, sol.converged, sol.extrapolated) == (ref.iterations, ref.converged, ref.extrapolated)
        np.testing.assert_allclose(sol.weights, ref.weights, rtol=0.0, atol=atol)
        assert sol.residual_error + sol.weight_sum_gap == pytest.approx(
            ref.residual_error + ref.weight_sum_gap, rel=0.0, abs=atol)

    def test_capped_and_restarting_solves_match_fresh_products(self, monkeypatch):
        # tightly clustered neighbors around a query inside their hull: the
        # solve cannot be certified, restarts, and runs to the iteration cap
        params = MaxEntParams(convergence_tolerance=1e-10)
        capped = restarted = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            k, d = int(rng.integers(3, 9)), int(rng.integers(2, 4))
            pts = rng.uniform(-1, 1, d) + rng.normal(scale=10.0 ** rng.uniform(-3, -1), size=(k, d))
            q = rng.dirichlet(np.ones(k)) @ pts
            u0 = rng.uniform(0.01, 1.0, k)
            counter = _StepCounter()
            with monkeypatch.context() as m:
                m.setattr(maxentnn.core, "np", counter)
                sol = _solve(pts, q, u0, params)
            self._assert_close(sol, _full_loop_solve(pts, q, u0, params, fresh_residual=True))
            capped += sol.iterations == params.it_local_min + 1
            # each restart takes a second projected step in its iteration
            restarted += counter.steps > sol.iterations
        assert capped >= 6 and restarted >= 6

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_random_problems_take_the_same_exits(self, k):
        # Outside the hull the solve can stall at the objective's rounding
        # floor before its bound check, where a restart test compares equal
        # objectives and either path may restart: the weights then agree only
        # to about sqrt(eps), the minimum's flatness, while the exit and the
        # error agree to rounding.
        for pts, q, u0, params in _random_problems(k):
            self._assert_close(_solve(pts, q, u0, params),
                               _full_loop_solve(pts, q, u0, params, fresh_residual=True), atol=1e-8)


class TestCertifiedStop:
    """A solve stops early only when no nonnegative weights reach the tolerance."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    def test_every_stop_is_sound_against_nnls(self, k):
        rng = np.random.default_rng(700 + k)
        stops = 0
        for trial in range(60):
            d = int(rng.integers(1, 6))
            pts = rng.uniform(-1, 1, (k, d))
            centre = pts.mean(axis=0)
            if trial % 3 == 0:
                # outside the hull, at up to four times its extent
                direction = rng.normal(size=d)
                q = centre + rng.uniform(1.0, 4.0) * direction / np.linalg.norm(direction)
            elif trial % 3 == 1:
                q = centre + rng.normal(scale=0.3, size=d)
            else:
                q = rng.uniform(-3, 3, d)
            kmat = np.vstack([pts.T, np.ones(k)])
            b = np.append(q, 1.0)
            best, best_norm = nnls(kmat, b)
            q_norm = float(np.linalg.norm(q))
            error_scale = min(1.0, 1.0 / q_norm) if q_norm > 0 else 1.0
            r = kmat @ best - b
            head = float(np.linalg.norm(r[:-1]))
            best_error = (head / q_norm if q_norm > 0 else head) + abs(float(r[-1]))
            if trial % 2 and error_scale * best_norm > 1e-4:
                # a tolerance near the reachable error makes a loose bound show
                tolerance = error_scale * best_norm * float(rng.uniform(0.5, 2.0))
            else:
                tolerance = float(10.0 ** rng.uniform(-3, -1))
            params = MaxEntParams(
                it_convergence=int(rng.integers(1, 40)),
                convergence_tolerance=tolerance,
            )
            sol = _solve(pts, q, rng.uniform(0.01, 1.0, k), params)
            assert not (sol.converged and sol.extrapolated)
            if sol.extrapolated:
                stops += 1
                assert sol.iterations % params.it_convergence == 0
                assert error_scale * best_norm >= tolerance
                assert best_error >= tolerance
        assert stops > 0

    def test_extrapolating_solve_stops_at_it_convergence(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (30, 2))
        q = np.array([6.0, 6.0])
        params = MaxEntParams()
        sol = _solve(pts, q, np.exp(-_sq_distances(pts, q) / 64.0), params)
        assert sol.extrapolated and not sol.converged
        assert sol.iterations == params.it_convergence

    def test_converging_solve_is_never_extrapolated(self):
        rng = np.random.default_rng(3)
        params = MaxEntParams()
        for _ in range(20):
            pts = rng.uniform(-1, 1, (12, 2))
            q = rng.uniform(-0.2, 0.2, 2)
            sol = _solve(pts, q, np.exp(-_sq_distances(pts, q)), params)
            assert sol.converged and not sol.extrapolated

    @pytest.mark.parametrize(
        "seed, query, flags",
        [
            (11, [0.4198363372151015, 0.49992567738080207], [True, False]),
            (93, [-0.9731053962294963, 0.19438350501485724], [False, True, True]),
        ],
    )
    def test_prediction_flag_comes_from_the_applied_solve(self, monkeypatch, seed, query, flags):
        solutions = []
        real = maxentnn.core.solve_weights

        def recording(*args, **kwargs):
            solutions.append(real(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(maxentnn.core, "solve_weights", recording)
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 1)))
        pred = predict_point(ds, query)
        assert [s.extrapolated for s in solutions] == flags
        assert pred.extrapolated == flags[-1]
        applied = solutions[-1].weights / solutions[-1].weights.sum()
        np.testing.assert_array_equal(pred.neighbor_weights, applied)


def _spanning_pm1(x):
    """``x`` with each column rescaled to span exactly [-1, 1], where an
    ``OnlineStore``'s min-max scaler is the identity bit for bit."""
    lo = x.min(axis=0)
    return 2.0 * (x - lo) / (x.max(axis=0) - lo) - 1.0


class TestPreparedNeighborhood:
    """``predict_point`` hands the solve its neighborhood prepared as ``K``."""

    @staticmethod
    def _recording(monkeypatch):
        calls = []
        real = maxentnn.core.solve_weights

        def recording(neighborhood, query, initial_weights, params):
            sol = real(neighborhood, query, initial_weights, params)
            calls.append((neighborhood, np.array(query), np.array(initial_weights), params, sol))
            return sol

        monkeypatch.setattr(maxentnn.core, "solve_weights", recording)
        return calls

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_every_solve_matches_the_array_path(self, monkeypatch, task):
        calls = self._recording(monkeypatch)
        rng = np.random.default_rng(31 if task == "regression" else 32)
        whole = 0
        for trial in range(12):
            m, d = int(rng.integers(5, 60)), int(rng.integers(1, 6))
            pts = rng.uniform(-1, 1, (m, d))
            if task == "regression":
                ds = Dataset(pts, rng.uniform(-1, 1, (m, int(rng.integers(1, 3)))))
            else:
                ds = Dataset(pts, rng.integers(0, 3, m), task="classification")
            params = MaxEntParams(it_convergence=int(rng.integers(1, 40)))
            before = len(calls)
            # queries inside the cloud, near its edge and far outside it
            for scale in (0.5, 1.5, 8.0):
                predict_point(ds, rng.uniform(-scale, scale, d), params)
            whole += sum(c[0].kmat.shape[1] == m for c in calls[before:])
        assert whole > 0 and len(calls) > 36
        # a gathered subset's operator, or the whole table's view, gives the
        # bits of the same rows prepared afresh
        for nb, q, u0, params, sol in calls:
            ref = _solve(nb.kmat[:-1].T, q, u0, params)
            assert np.array_equal(sol.weights, ref.weights)
            assert sol.residual_error == ref.residual_error
            assert sol.weight_sum_gap == ref.weight_sum_gap
            assert sol.iterations == ref.iterations
            assert sol.converged == ref.converged
            assert sol.extrapolated == ref.extrapolated

    def test_whole_table_operator_is_built_once_per_snapshot(self, monkeypatch):
        bounds = []
        real = maxentnn.core._spectral_bound

        def counting(kmat, *args):
            bounds.append(kmat.shape[1])
            return real(kmat, *args)

        monkeypatch.setattr(maxentnn.core, "_spectral_bound", counting)
        rng = np.random.default_rng(0)
        table = FeatureTable(_spanning_pm1(rng.uniform(-1, 1, (30, 2))), rng.uniform(0, 1, 30),
                             columns=("x1", "x2"))
        store = OnlineStore.from_table(table)
        first = [store.predict(q) for q in ([6.0, 6.0], [-6.0, 5.0])]
        assert [p.n_neighbors for p in first] == [30, 30]
        assert all(p.extrapolated for p in first)
        assert bounds == [30]
        store.append_row([0.1, 0.2], target=0.5)
        assert store.predict([6.0, 6.0]).n_neighbors == 31
        assert bounds == [30, 31]

    def test_prepared_operator_is_read_only(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, (10, 1)))
        for nb in (ds._whole_table, _neighborhood(ds.points[[1, 4, 7]])):
            assert not nb.kmat.flags.writeable
            with pytest.raises(ValueError):
                nb.kmat[0, 0] = 1.0
        np.testing.assert_array_equal(ds._whole_table.kmat[:-1].T, ds.points)
        assert ds._whole_table is ds._whole_table

    def test_threads_sharing_the_whole_table_match_a_serial_run(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (40, 3))
        labels = rng.uniform(-1, 1, (40, 2))
        queries = rng.uniform(5.0, 9.0, (16, 3)) * rng.choice([-1.0, 1.0], (16, 3))
        # a fresh Dataset each time, so the parallel run builds the memo under threads
        serial = predict_batch(Dataset(pts, labels), queries, parallelism=1)
        parallel = predict_batch(Dataset(pts, labels), queries, parallelism=2)
        assert all(p.n_neighbors == 40 for p in serial)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.value, b.value)
            np.testing.assert_array_equal(a.neighbor_weights, b.neighbor_weights)
            assert a.diagnostics() == b.diagnostics()
            assert a.extrapolated == b.extrapolated


def _vstack_neighborhood(rows):
    """The operator stacked by ``np.vstack`` from the C-ordered points and
    a row of ones: the reference whose bits the view of ``[X | 1]`` keeps."""
    pts = np.ascontiguousarray(rows[:, :-1])
    kmat = np.vstack([pts.T, np.ones((1, pts.shape[0]))])
    kmat.setflags(write=False)
    return maxentnn.core._Neighborhood(kmat, 1.0 / _spectral_bound(kmat))


class TestOneTableArray:
    """A Dataset holds its table once: the points and the whole-table operator
    are views of one ``[X | 1]`` array, with the bits of a stacked operator."""

    @pytest.mark.parametrize("n", [1, 2, 5, 530])
    @pytest.mark.parametrize("m", [1, 2, 40])
    def test_whole_table_operator_is_a_view_with_the_stacked_strides(self, n, m):
        rng = np.random.default_rng(n + m)
        ds = Dataset(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, 1)))
        kmat = ds._whole_table.kmat
        stacked = np.vstack([np.ascontiguousarray(ds.points).T, np.ones((1, m))])
        np.testing.assert_array_equal(kmat, stacked)
        assert ds.points.strides == (8 * (n + 1), 8)
        if n == 1:
            # the 2 x m stack is C-ordered, so the operator is a C-ordered copy
            assert kmat.flags.c_contiguous
        else:
            assert np.shares_memory(kmat, ds.points)
        if m > 1:  # a one-column operator's column stride is never used
            assert kmat.strides == stacked.strides
        assert not kmat.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 5, 530])
    def test_predictions_match_a_stacked_operator(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        m = 60
        pts = rng.uniform(-1, 1, (m, n))
        ds = Dataset(pts, rng.uniform(-1, 1, (m, 2)))
        # queries inside the cloud, near its edge and far outside it, and a
        # near-duplicate of a row, whose neighborhood may be one row
        queries = [rng.uniform(-s, s, n) for s in (0.5, 1.5, 8.0) for _ in range(4)]
        queries.append(pts[3] + 1e-9)
        got = [predict_point(ds, q) for q in queries]
        monkeypatch.setattr(maxentnn.core, "_neighborhood", _vstack_neighborhood)
        ref_ds = Dataset(pts, ds.labels)
        want = [predict_point(ref_ds, q) for q in queries]
        assert any(p.n_neighbors == m for p in want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.value, b.value)
            assert a.diagnostics() == b.diagnostics()
            np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
            np.testing.assert_array_equal(a.neighbor_weights, b.neighbor_weights)
            assert a.extrapolated == b.extrapolated

    @pytest.mark.parametrize("n", [1, 2, 530])
    def test_appended_snapshot_matches_a_dataset_of_its_rows(self, n):
        rng = np.random.default_rng(n)
        m = 30
        table = FeatureTable(_spanning_pm1(rng.uniform(-1, 1, (m, n))), rng.uniform(0, 1, m),
                             columns=tuple(f"x{j}" for j in range(n)))
        store = OnlineStore.from_table(table)
        store.append_rows(rng.uniform(-1, 1, (5, n)), rng.uniform(0, 1, 5))
        for row in rng.uniform(-1, 1, (4, n)):
            store.append_row(row, float(rng.uniform()))
        ds = store.snapshot()
        assert ds._rows.base.shape[0] > ds.n_points == m + 9  # a prefix of a buffer
        ref = Dataset(np.array(ds.points), np.array(ds.labels))
        assert ds.points.strides == ref.points.strides == (8 * (n + 1), 8)
        assert ds.labels.strides == ref.labels.strides
        kmat, ref_kmat = ds._whole_table.kmat, ref._whole_table.kmat
        np.testing.assert_array_equal(kmat, ref_kmat)
        assert kmat.strides == ref_kmat.strides
        assert kmat.flags.c_contiguous == ref_kmat.flags.c_contiguous
        assert ds._whole_table.step == ref._whole_table.step
        queries = [rng.uniform(-s, s, n) for s in (0.5, 1.5, 8.0) for _ in range(3)]
        queries.append(ds.points[m + 3] + 1e-9)
        for q in queries:
            a, b = predict_point(ds, q), predict_point(ref, q)
            np.testing.assert_array_equal(a.value, b.value)
            assert a.diagnostics() == b.diagnostics()
            np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
            np.testing.assert_array_equal(a.neighbor_weights, b.neighbor_weights)
            assert a.extrapolated == b.extrapolated

    @pytest.mark.parametrize("n", [1, 2, 5, 530])
    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_array_solve_matches_a_stacked_operator(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        pts = rng.uniform(-1, 1, (k, n))
        q, u0 = rng.uniform(-2, 2, n), rng.uniform(0, 1, k)
        params = MaxEntParams()
        got = _solve(pts, q, u0, params)
        nb = _vstack_neighborhood(np.hstack([pts, np.ones((k, 1))]))
        want = solve_weights(nb, q, u0, params)
        np.testing.assert_array_equal(got.weights, want.weights)
        assert (got.residual_error, got.weight_sum_gap, got.iterations) == (
            want.residual_error, want.weight_sum_gap, want.iterations)


def _operators(k: int):
    """Prepared ``[X^T; 1]`` operators of k rows: spread, tightly clustered and all-zero."""
    rng = np.random.default_rng(k)
    for d in (1, 3, 530):
        rows = rng.uniform(-1, 1, (k, d))
        tight = rows[:1] + 1e-6 * rng.normal(size=(k, d))
        for r in (rows, tight):
            yield np.vstack([r.T, np.ones((1, k))])
    yield np.zeros((4, k))


def _power_iteration_bound(kmat: np.ndarray) -> float:
    # 16 power sweeps on K^T K from ones / sqrt(k), with the same margin
    v = np.ones(kmat.shape[1]) / math.sqrt(kmat.shape[1])
    for _ in range(16):
        w = kmat.T @ (kmat @ v)
        lam = float(np.linalg.norm(w))
        v = w / lam
    return 1.05 * lam


class TestSpectralBound:
    """``_spectral_bound`` gives the solve a step 1/L with ||K||_2^2 <= L <= 1.05 ||K||_2^2."""

    @staticmethod
    def _counting_steps(monkeypatch):
        # each Lanczos step takes the eigenvalues of its tridiagonal once
        steps = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            steps.append(1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return lambda: len(steps)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    def test_bound_brackets_the_squared_spectral_norm(self, k):
        for kmat in _operators(k):
            exact = np.linalg.norm(kmat, 2) ** 2
            assert exact <= _spectral_bound(kmat) <= 1.05 * exact * (1 + 1e-3)

    def test_bound_holds_where_power_iteration_falls_short(self):
        # one feature, rows alternating +-1.1: the top eigenvector of K^T K is
        # nearly orthogonal to the start vector (the nudge keeps it from
        # being exactly orthogonal), so power sweeps settle on the second
        x = 1.1 * np.resize([1.0, -1.0], 6)
        x[0] += 1e-3
        kmat = np.vstack([x, np.ones(6)])
        exact = np.linalg.norm(kmat, 2) ** 2
        assert _power_iteration_bound(kmat) < 0.95 * 1.05 * exact
        assert exact <= _spectral_bound(kmat) <= 1.05 * exact * (1 + 1e-3)

    def test_steps_are_capped_at_sixteen_and_at_k(self, monkeypatch):
        steps = self._counting_steps(monkeypatch)
        rng = np.random.default_rng(4)
        operators = [kmat for k in (1, 2, 3, 5, 40) for kmat in _operators(k)]
        operators.append(np.vstack([rng.uniform(-1, 1, (200, 60)), np.ones((1, 60))]))
        # evenly spread spectra, where theta still moves at either cap
        operators += [np.diag(np.sqrt(np.linspace(1.0, 0.0, k))) for k in (10, 200)]
        counts = []
        for kmat in operators:
            start = steps()
            _spectral_bound(kmat)
            counts.append(steps() - start)
            assert 1 <= counts[-1] <= min(16, kmat.shape[1])
        assert counts[-2:] == [10, 16]

    def test_one_neighbor_takes_one_step(self, monkeypatch):
        steps = self._counting_steps(monkeypatch)
        for kmat in _operators(1):
            start = steps()
            _spectral_bound(kmat)
            assert steps() - start == 1


class TestDistanceScan:
    """The blocked scan gives the bits of the one-shot expression on C-ordered rows."""

    @pytest.mark.parametrize("m", [1, 127, 128, 129, 1000])
    def test_blocked_scan_equals_one_shot_sum_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        n = 37
        q = rng.uniform(-1, 1, n)
        pts = rng.uniform(-1, 1, (m, n)) * rng.choice([1e-3, 1.0, 1e3], (m, 1))
        special = [
            q + 1e-16 * rng.normal(size=n),  # near-duplicates of the query
            np.nextafter(q, np.inf),
            q + 1e-160 * rng.uniform(1, 2, n),  # squares are subnormal or zero
            q + 1e155 * rng.uniform(1, 2, n),  # squares overflow to inf
            q + np.where(rng.uniform(size=n) < 0.5, 1e200, 1e-170),
        ]
        for i, row in zip(range(0, m, max(1, m // len(special))), special):
            pts[i] = row
        with np.errstate(over="ignore", under="ignore"):
            expected = np.sum((pts - q) ** 2, axis=1)
            got = maxentnn.core._sq_distances(pts, q)
        assert got.shape == (m,)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestPredictRegression:
    def test_single_label(self):
        assert predict_regression([1.0], [0.7]) == pytest.approx(0.7)

    def test_midpoint(self):
        assert predict_regression([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.5)

    def test_weighted_blend(self):
        assert predict_regression([0.2, 0.3, 0.5], [1.0, 2.0, 3.0]) == pytest.approx(2.3)

    def test_multi_output(self):
        out = predict_regression([0.5, 0.5], [[0.0, 2.0], [1.0, 4.0]])
        np.testing.assert_allclose(out, [0.5, 3.0])


class TestPredictClassification:
    def test_majority(self):
        assert predict_classification([1, 1, 0]) == 1

    def test_singleton(self):
        assert predict_classification([0]) == 0

    def test_tie_breaks_to_nearest(self):
        assert predict_classification([0, 1], distances=[1.0, 2.0]) == 0
        assert predict_classification([0, 1], distances=[2.0, 1.0]) == 1

    def test_tie_without_distances_takes_smallest_id(self):
        assert predict_classification([5, 3]) == 3

    def test_empty_raises(self):
        with pytest.raises(DegenerateNeighborhoodError):
            predict_classification([])


class TestPredictPoint:
    def test_default_params_are_one_shared_instance(self, monkeypatch):
        ds = Dataset(np.random.default_rng(6).uniform(-1, 1, (20, 2)), np.zeros((20, 1)))
        want = predict_point(ds, [0.1, 0.2], MaxEntParams())
        assert maxentnn.core._DEFAULT_PARAMS == MaxEntParams()

        def no_new_params(*args, **kwargs):
            raise AssertionError("a call without params built a MaxEntParams")

        monkeypatch.setattr(maxentnn.core, "MaxEntParams", no_new_params)
        got = predict_point(ds, [0.1, 0.2])
        assert got.diagnostics() == want.diagnostics()
        assert predict_batch(ds, np.array([[0.1, 0.2]]))[0].diagnostics() == want.diagnostics()

    def test_duplicate_query_regression(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (30, 2))
        labels = rng.uniform(-1, 1, (30, 1))
        ds = Dataset(pts, labels)
        pred = predict_point(ds, pts[13])
        assert pred.exit_reason == "converged"
        assert pred.iterations == 0
        np.testing.assert_array_equal(pred.value, labels[13])

    def test_duplicate_query_classification(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        ds = Dataset(pts, [2, 0, 1], task="classification")
        assert predict_point(ds, [1.0, 0.0]).value == 0

    def test_midpoint_interpolation(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        pred = predict_point(ds, [0.5])
        assert abs(float(pred.value[0]) - 0.5) < 0.01
        assert pred.exit_reason == "converged"

    def test_exact_duplicate_wins_over_underflowed_distance(self):
        # [1e-200] is at distance 0.0 after underflow but is not the query
        ds = Dataset([[1e-200], [0.0]], [[5.0], [7.0]])
        pred = predict_point(ds, [0.0])
        assert pred.neighbor_indices.tolist() == [1]
        np.testing.assert_array_equal(pred.value, [7.0])

    def test_every_duplicate_short_circuit_picks_the_same_row(self):
        # row 0 is at squared distance 0.0 after underflow; row 1 is the query
        pts, q = np.array([[1e-170], [0.0], [0.5]]), np.array([0.0])
        ds = Dataset(pts, [[10.0], [20.0], [30.0]])
        np.testing.assert_array_equal(predict_point(ds, q).value, [20.0])
        np.testing.assert_array_equal(weighted_knn_predict(ds, q, k=2), [20.0])
        clf = Dataset(pts, [1, 2, 3], "classification")
        assert predict_point(clf, q).value == weighted_knn_predict(clf, q, k=2) == 2

    def test_underflowed_distance_counts_as_duplicate(self):
        ds = Dataset([[1.0], [1e-200]], [[5.0], [7.0]])
        pred = predict_point(ds, [0.0])
        assert pred.neighbor_indices.tolist() == [1]
        assert pred.iterations == 0

    @staticmethod
    def _count_solves(monkeypatch):
        sizes = []
        real = maxentnn.core.solve_weights

        def counting(neighborhood, *args, **kwargs):
            sizes.append(neighborhood.kmat.shape[1])
            return real(neighborhood, *args, **kwargs)

        monkeypatch.setattr(maxentnn.core, "solve_weights", counting)
        return sizes

    def test_repeated_neighborhood_is_not_solved_again(self, monkeypatch):
        sizes = self._count_solves(monkeypatch)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (30, 2))
        labels = rng.uniform(-1, 1, (30, 1))
        ds = Dataset(pts, labels)
        q = np.array([6.0, 6.0])
        params = MaxEntParams()
        pred = predict_point(ds, q, params)
        assert sizes == [30]
        assert pred.exit_reason == "local_minimum"
        assert pred.rounds == 2
        assert pred.extrapolated and pred.iterations == params.it_convergence

        rows = pts[pred.neighbor_indices]
        sims = np.exp(-np.sum((rows - q) ** 2, axis=1) / (pred.bandwidth * pred.bandwidth))
        direct = _solve(rows, q, sims, params)
        assert direct.iterations == pred.iterations
        assert direct.residual_error == pred.residual_error
        assert direct.weight_sum_gap == pred.weight_sum_gap
        blend = direct.weights / direct.weights.sum()
        np.testing.assert_array_equal(pred.neighbor_weights, blend)
        np.testing.assert_array_equal(pred.value, blend @ labels[pred.neighbor_indices])

    def test_unchanged_prefilter_is_not_swept_again(self, monkeypatch):
        calls = {"filter_convex": [], "optimize_bandwidth": [], "solve_weights": []}
        for name, log in calls.items():
            real = getattr(maxentnn.core, name)

            def counting(*args, _real=real, _log=log, **kwargs):
                _log.append(_real(*args, **kwargs))
                return _log[-1]

            monkeypatch.setattr(maxentnn.core, name, counting)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 1)))
        pred = predict_point(ds, [6.0, 6.0])
        assert [f.size for f in calls["filter_convex"]] == [30, 30]
        assert len(calls["optimize_bandwidth"]) == len(calls["solve_weights"]) == 1
        assert pred.exit_reason == "local_minimum" and pred.rounds == 2
        subset, solution = calls["optimize_bandwidth"][0], calls["solve_weights"][0]
        np.testing.assert_array_equal(pred.neighbor_indices, subset.indices)
        assert pred.bandwidth == subset.bandwidth
        assert pred.iterations == solution.iterations

    def test_fortran_ordered_points_predict_as_c_ordered(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, (300, 40))
        labels = rng.uniform(0, 1, (300, 1))
        c_ds, f_ds = Dataset(pts, labels), Dataset(np.asfortranarray(pts), labels)
        assert f_ds.points.strides[1] == 8
        # the one-shot scan of Fortran-ordered rows sums them in another order
        f_d2 = np.sum((np.asfortranarray(pts) - pts[0] * 0.9) ** 2, axis=1)
        assert not np.array_equal(f_d2, np.sum((pts - pts[0] * 0.9) ** 2, axis=1))
        for q in (pts[0] * 0.9, rng.uniform(-0.3, 0.3, 40), np.full(40, 4.0)):
            a, b = predict_point(c_ds, q), predict_point(f_ds, q)
            np.testing.assert_array_equal(a.value, b.value)
            assert a.diagnostics() == b.diagnostics()
            np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
            np.testing.assert_array_equal(a.neighbor_weights, b.neighbor_weights)
            assert a.extrapolated == b.extrapolated

    def test_growing_neighborhood_is_solved_every_round(self, monkeypatch):
        sizes = self._count_solves(monkeypatch)
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 1)))
        pred = predict_point(ds, [1.3, 0.2])
        # round 3 reselects round 2's rows and is not solved again
        assert len(sizes) == pred.rounds - 1 == 2
        assert sizes[0] < sizes[1] == pred.n_neighbors

    def test_dimension_mismatch(self):
        ds = Dataset([[0.0, 0.0]], [[0.0]])
        with pytest.raises(InvalidInputError):
            predict_point(ds, [0.0])

    def test_exhausted_rounds_raise_degenerate(self):
        # an extreme filter threshold rejects the only (distant) point forever
        ds = Dataset([[5.0]], [[1.0]])
        params = MaxEntParams(threshold_filter=0.999999, max_minconvex_rounds=3)
        with pytest.raises(DegenerateNeighborhoodError):
            predict_point(ds, [0.0], params)

    def test_converged_exit_satisfies_tolerance(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, (80, 2))
        labels = rng.uniform(0, 1, (80, 1))
        ds = Dataset(pts, labels)
        params = MaxEntParams()
        pred = predict_point(ds, [0.05, -0.1], params)
        if pred.exit_reason == "converged":
            assert pred.residual_error + pred.weight_sum_gap < params.convergence_tolerance
            assert pred.iterations > params.it_convergence

    def test_diagnostics_payload(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        d = predict_point(ds, [0.25]).diagnostics()
        assert set(d) == {
            "exit_reason", "h_star", "n_neighbors", "iterations",
            "residual_error", "weight_sum_gap", "rounds",
        }


class TestPredictBatch:
    def test_empty_batch(self):
        ds = Dataset([[0.0]], [[0.0]])
        assert predict_batch(ds, []) == []

    def test_batch_of_one_matches_predict_point(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        single = predict_point(ds, [0.3])
        batch = predict_batch(ds, [[0.3]])
        assert len(batch) == 1
        np.testing.assert_array_equal(batch[0].value, single.value)
        assert batch[0].diagnostics() == single.diagnostics()

    def test_parallel_matches_sequential_exactly(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (200, 2))
        y1, y2 = pts[:, 0] * pts[:, 1], np.cos(pts[:, 0])
        ds = Dataset(pts, np.column_stack([y1, y2]))
        queries = np.column_stack([np.linspace(0, 1, 50)] * 2)
        seq = predict_batch(ds, queries, parallelism=1)
        par = predict_batch(ds, queries, parallelism=8)
        assert len(seq) == len(par) == 50
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.value, b.value)
            assert a.diagnostics() == b.diagnostics()

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        asked = []

        class SequentialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(maxentnn.core, "ThreadPoolExecutor", SequentialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        out = predict_batch(ds, [[0.2], [0.5], [0.8]], parallelism=10_000)
        assert asked == [2]
        assert len(out) == 3

    def test_per_query_failures_do_not_abort(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        queries = np.array([[0.2], [np.nan], [0.8]])
        out = predict_batch(ds, queries)
        assert isinstance(out[0], Prediction)
        assert isinstance(out[1], PredictionFailure)
        assert out[1].error == "InvalidInputError"
        assert isinstance(out[2], Prediction)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_1d_batch_is_refused_not_guessed(self, n):
        # neither one row of n features nor a column of n = 1 queries
        ds = Dataset(np.eye(3)[:, :n], [[0.0], [1.0], [2.0]])
        with pytest.raises(InvalidInputError, match=r"queries must be \(n_queries, %d\)" % n):
            predict_batch(ds, [0.5] * n)


_NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
_NUMPY_FLOATS = (np.float16, np.float32, np.float64, np.longdouble)
_COUNT_FIELDS = ("it_convergence", "it_local_min", "sweep_points", "max_minconvex_rounds")
_TOLERANCE_FIELDS = ("threshold_filter", "threshold_entropy", "convergence_tolerance",
                     "local_min_tolerance", "q1_initial_error", "q2_hfilter_increment")


class TestParamsValidation:
    def test_defaults_valid(self):
        p = MaxEntParams()
        assert p.threshold_filter == 0.01
        assert p.threshold_entropy == 0.01
        assert p.convergence_tolerance == 0.01
        assert p.it_convergence == 20
        assert p.local_min_tolerance == 1e-9
        assert p.it_local_min == 1000

    @pytest.mark.parametrize("kwargs", [
        {"threshold_filter": 0.0},
        {"threshold_entropy": 1.5},
        {"convergence_tolerance": -0.01},
        {"it_convergence": 0},
        {"sweep_points": 1},
        {"max_minconvex_rounds": 0},
        {"q2_hfilter_increment": 0.0},
        # a bool is an int, but True is no count or tolerance
        {"it_convergence": True},
        {"it_local_min": True},
        {"max_minconvex_rounds": True},
        {"convergence_tolerance": True},
        {"local_min_tolerance": True},
        {"q1_initial_error": True},
        {"q2_hfilter_increment": True},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            MaxEntParams(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        p = MaxEntParams(it_local_min=np.int64(5), sweep_points=np.int32(8),
                         threshold_filter=np.float32(0.5), q1_initial_error=np.int64(10))
        assert p == MaxEntParams(it_local_min=5, sweep_points=8,
                                 threshold_filter=float(np.float32(0.5)), q1_initial_error=10.0)
        assert type(p.it_local_min) is int and type(p.sweep_points) is int
        assert type(p.threshold_filter) is float and type(p.q1_initial_error) is float
        for kwargs in ({"it_local_min": np.bool_(True)}, {"threshold_filter": np.bool_(True)},
                       {"it_local_min": np.float64(5.0)}):
            with pytest.raises(ParameterError):
                MaxEntParams(**kwargs)

    @pytest.mark.parametrize("dtype", _NUMPY_INTS)
    def test_a_numpy_integer_count_is_stored_as_an_int(self, dtype):
        p = MaxEntParams(**{name: dtype(5) for name in _COUNT_FIELDS})
        assert p == MaxEntParams(**{name: 5 for name in _COUNT_FIELDS})
        assert all(type(getattr(p, name)) is int for name in _COUNT_FIELDS)

    @pytest.mark.parametrize("dtype", _NUMPY_FLOATS)
    def test_a_numpy_float_tolerance_is_stored_as_a_float(self, dtype):
        p = MaxEntParams(**{name: dtype(0.5) for name in _TOLERANCE_FIELDS})
        assert p == MaxEntParams(**{name: 0.5 for name in _TOLERANCE_FIELDS})
        assert all(type(getattr(p, name)) is float for name in _TOLERANCE_FIELDS)

    @pytest.mark.parametrize("name", _COUNT_FIELDS + _TOLERANCE_FIELDS)
    def test_a_numpy_bool_is_refused(self, name):
        # np.bool_ is no numbers.Integral, but it would pass an int() or float()
        with pytest.raises(ParameterError):
            MaxEntParams(**{name: np.bool_(True)})


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))

    def test_1d_points_are_refused_not_read_as_a_column(self):
        with pytest.raises(InvalidInputError, match="nonempty 2-D array"):
            Dataset([0.0, 1.0], [[0.0], [1.0]])

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset([[0.0], [1.0]], [[0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset([[np.inf]], [[0.0]])

    def test_arrays_are_read_only(self):
        ds = Dataset([[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_checked_rows_get_ones_in_place_and_are_read_from_start(self):
        # the one check of the constructor, the store's build and its appends
        rows = np.array([[0.0, 1.0, 7.0], [2.0, 3.0, 7.0]])
        labels = _checked_rows(rows, [0.5, 1.5], "regression")
        np.testing.assert_array_equal(rows, [[0.0, 1.0, 1.0], [2.0, 3.0, 1.0]])
        np.testing.assert_array_equal(labels, [[0.5], [1.5]])
        with pytest.raises(InvalidInputError, match="non-finite"):
            _checked_rows(np.array([[np.nan, 0.0]]), [0.0], "regression")
        with pytest.raises(InvalidInputError, match="2 points but 1 label rows"):
            _checked_rows(np.zeros((2, 2)), [0.0], "regression")
        # rows before start are neither read nor written; the count holds them
        rows = np.array([[np.nan, 7.0], [2.0, 7.0], [3.0, 7.0]])
        labels = _checked_rows(rows, [0.5, 0.25], "regression", start=1)
        np.testing.assert_array_equal(rows[:, -1], [7.0, 1.0, 1.0])
        np.testing.assert_array_equal(labels, [[0.5], [0.25]])
        with pytest.raises(InvalidInputError, match="3 points but 2 label rows"):
            _checked_rows(rows, [0.5], "regression", start=1)
        with pytest.raises(InvalidInputError, match="non-finite"):
            _checked_rows(rows, [0.5, 0.25, 0.0], "regression", start=0)

    @pytest.mark.parametrize("labels", [
        [1e300, 0.0, 1.0], [-1e300, 0.0, 1.0], [2.0**63, 0.0, 1.0], [-2.0**64, 0.0, 1.0],
        [2**63, 0, 1],  # Python ints, read as float64 or uint64 by numpy version
        np.array([2**63, 0, 1], dtype=np.uint64),
    ])
    def test_class_ids_outside_int64_are_rejected_without_a_cast(self, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="int64"):
                Dataset(np.random.rand(3, 2), labels, "classification")

    def test_class_ids_at_the_int64_limits_are_kept(self):
        low, high = -2.0**63, np.nextafter(2.0**63, 0.0)
        ds = Dataset(np.random.rand(3, 2), [low, high, 1.0], "classification")
        assert ds.labels.tolist() == [-2**63, int(high), 1]
        top = np.array([2**63 - 1, 0, 1], dtype=np.uint64)
        assert Dataset(np.random.rand(3, 2), top, "classification").labels[0] == 2**63 - 1

    def test_equality_and_hash_are_by_identity(self):
        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        twin = copy.deepcopy(ds)
        assert ds == ds and ds != twin
        assert hash(ds) == hash(ds)
        assert len({ds, twin, ds}) == 2

    def test_classification_labels_must_be_integral(self):
        with pytest.raises(InvalidInputError):
            Dataset([[0.0]], [0.5], task="classification")

    @pytest.mark.parametrize("labels", [[2**64, 0], ["a", "b"], [None, 1], [1j, 0]])
    def test_class_ids_that_are_not_int64_numbers_are_invalid_input(self, labels):
        # astype(np.int64) raised OverflowError, ValueError or TypeError here
        with pytest.raises(InvalidInputError, match="class ids"):
            Dataset(np.random.rand(2, 2), labels, "classification")


class TestDiagnosticsSerialization:
    def test_diagnostics_round_trip_as_json(self):
        import json

        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        payload = json.loads(json.dumps(predict_point(ds, [0.4]).diagnostics()))
        assert payload["exit_reason"] in ("converged", "local_minimum", "round_cap")
        assert payload["h_star"] > 0
