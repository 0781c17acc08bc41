"""Unit tests for the entropy-tuned neighbor predictor."""

import math
import os

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
    solve_weights,
)
from maxentnn.core import WeightSolution, _neighborhood, _spectral_bound
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


class TestSolveWeights:
    def test_coincident_point_short_circuits(self):
        pts = np.array([[1.0, 1.0], [3.0, 0.0], [0.0, 2.0]])
        sol = solve_weights(pts, [1.0, 1.0], np.array([1.0, 0.5, 0.5]), MaxEntParams())
        assert sol.converged
        assert sol.iterations == 0
        assert sol.residual_error == 0.0
        assert sol.weight_sum_gap == 0.0
        np.testing.assert_array_equal(sol.weights, [1.0, 0.0, 0.0])

    def test_midpoint_splits_evenly(self):
        pts = np.array([[0.0], [1.0]])
        init = np.exp(-np.array([0.25, 0.25]))  # similarities at h = 1
        sol = solve_weights(pts, [0.5], init, MaxEntParams())
        assert sol.converged
        assert sol.residual_error + sol.weight_sum_gap < 0.01
        np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=0.01)

    def test_barycentric_coordinates_match_nnls_oracle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        query = np.array([0.2, 0.3])
        init = np.exp(-np.sum((pts - query) ** 2, axis=1))
        params = MaxEntParams(convergence_tolerance=1e-9, it_local_min=200_000)
        sol = solve_weights(pts, query, init, params)
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
        sol = solve_weights(pts, query, init, MaxEntParams())
        assert np.all(sol.weights >= 0.0)

    def test_empty_subset_raises(self):
        with pytest.raises(DegenerateNeighborhoodError):
            solve_weights(np.zeros((0, 2)), [0.0, 0.0], np.array([]), MaxEntParams())


def _full_loop_solve(pts, q, u0, params: MaxEntParams) -> WeightSolution:
    """The weight solve as specified: every iteration up to the caps is run.

    A copy of ``solve_weights``' loop, with its convergence test and its
    duality-bound check but without the exit at an exact fixed point; the
    tests below hold the solver to it bit for bit.
    """
    pts = np.asarray(pts, dtype=float)
    q = np.asarray(q, dtype=float)
    k = pts.shape[0]
    d2 = np.sum((pts - q) ** 2, axis=1)
    exact = np.flatnonzero(d2 == 0.0)
    if exact.size:
        w = np.zeros(k)
        w[exact[0]] = 1.0
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
        rz = kmat @ z - b
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
            sol = solve_weights(pts, q, u0, params)
        return sol, counter.steps

    def test_one_neighbor_rounds_match_the_full_loop(self, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(-1, 1, (30, 2)), rng.uniform(-1, 1, (30, 1)))
        q = [0.9, 0.95]
        pred = predict_point(ds, q)
        monkeypatch.setattr(maxentnn.core, "solve_weights", _full_loop_solve)
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
            self._assert_same(solve_weights(pts, q, u0, params), _full_loop_solve(pts, q, u0, params))

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
        sol = solve_weights(row, q, np.array([0.9]), params)
        self._assert_same(sol, _full_loop_solve(row, q, np.array([0.9]), params))
        # the full loop converges only if it runs past it_convergence
        assert sol.converged == (it_local_min >= 30)
        assert sol.iterations == (31 if it_local_min >= 30 else it_local_min + 1)


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
            sol = solve_weights(pts, q, rng.uniform(0.01, 1.0, k), params)
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
        sol = solve_weights(pts, q, np.exp(-_sq_distances(pts, q) / 64.0), params)
        assert sol.extrapolated and not sol.converged
        assert sol.iterations == params.it_convergence

    def test_converging_solve_is_never_extrapolated(self):
        rng = np.random.default_rng(3)
        params = MaxEntParams()
        for _ in range(20):
            pts = rng.uniform(-1, 1, (12, 2))
            q = rng.uniform(-0.2, 0.2, 2)
            sol = solve_weights(pts, q, np.exp(-_sq_distances(pts, q)), params)
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


class TestPreparedNeighborhood:
    """``predict_point`` hands the solve its neighborhood prepared as ``K``."""

    @staticmethod
    def _recording(monkeypatch):
        calls = []
        real = maxentnn.core.solve_weights

        def recording(subset_points, query, initial_weights, params):
            sol = real(subset_points, query, initial_weights, params)
            calls.append((subset_points, np.array(query), np.array(initial_weights), params, sol))
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
            whole += sum(len(c[0]) == m for c in calls[before:])
        assert whole > 0 and len(calls) > 36
        for nb, q, u0, params, sol in calls:
            ref = solve_weights(np.asarray(nb), q, u0, params)
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
        table = FeatureTable(rng.uniform(-1, 1, (30, 2)), rng.uniform(0, 1, 30),
                             columns=("x1", "x2"))
        store = OnlineStore.from_table(table, scaler_kind=None)
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
        np.testing.assert_array_equal(np.asarray(ds._whole_table), ds.points)
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


def _all_sweeps_bound(kmat: np.ndarray, sweeps: int = 16) -> float:
    # the power iteration of ``_spectral_bound`` without its fixed-point exit
    v = np.ones(kmat.shape[1]) / math.sqrt(kmat.shape[1])
    lam = None
    for _ in range(sweeps):
        w = kmat.T @ (kmat @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break
        lam = norm / float(np.linalg.norm(v))
        v = w / norm
    if lam is None:
        lam = float(np.sum(kmat * kmat))  # Frobenius fallback
    return 1.05 * lam


def _operators(k: int):
    """Prepared ``[X^T; 1]`` operators of k rows: spread, tightly clustered and all-zero."""
    rng = np.random.default_rng(k)
    for d in (1, 3, 530):
        rows = rng.uniform(-1, 1, (k, d))
        tight = rows[:1] + 1e-6 * rng.normal(size=(k, d))
        for r in (rows, tight):
            yield np.vstack([r.T, np.ones((1, k))])
    yield np.zeros((4, k))


class TestSpectralBound:
    """The power iteration stops once a sweep maps its vector onto itself."""

    @staticmethod
    def _counting_sweeps(monkeypatch):
        # every sweep that does not meet a zero vector takes two norms
        norms = []
        real = np.linalg.norm

        def counting(x, *args, **kwargs):
            norms.append(1)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        return lambda: len(norms) // 2

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    def test_bound_equals_all_sixteen_sweeps_bit_for_bit(self, k):
        for kmat in _operators(k):
            assert _spectral_bound(kmat) == _all_sweeps_bound(kmat)

    def test_sweeps_stop_at_a_fixed_point(self, monkeypatch):
        sweeps = self._counting_sweeps(monkeypatch)
        counts = {}
        for k in (1, 2, 40):
            counts[k] = []
            for kmat in list(_operators(k))[:-1]:  # not the all-zero operator
                start = sweeps()
                _spectral_bound(kmat)
                counts[k].append(sweeps() - start)
        # one neighbor: the first normalized sweep gives back v = [1.0]
        assert counts[1] == [1] * 6
        # tight clusters settle within a few sweeps, spread rows run all 16
        for k in (2, 40):
            assert 16 in counts[k]
            assert min(counts[k]) < 16


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

    def test_underflowed_distance_counts_as_duplicate(self):
        ds = Dataset([[1.0], [1e-200]], [[5.0], [7.0]])
        pred = predict_point(ds, [0.0])
        assert pred.neighbor_indices.tolist() == [1]
        assert pred.iterations == 0

    @staticmethod
    def _count_solves(monkeypatch):
        sizes = []
        real = maxentnn.core.solve_weights

        def counting(subset_points, *args, **kwargs):
            sizes.append(len(subset_points))
            return real(subset_points, *args, **kwargs)

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
        direct = solve_weights(rows, q, sims, params)
        assert direct.iterations == pred.iterations
        assert direct.residual_error == pred.residual_error
        assert direct.weight_sum_gap == pred.weight_sum_gap
        blend = direct.weights / direct.weights.sum()
        np.testing.assert_array_equal(pred.neighbor_weights, blend)
        np.testing.assert_array_equal(pred.value, blend @ labels[pred.neighbor_indices])

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
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            MaxEntParams(**kwargs)


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))

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

    def test_adopted_points_are_not_copied_and_are_checked(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        ds = Dataset._adopt(pts, [0.5, 1.5])
        assert ds.points is pts and not pts.flags.writeable
        np.testing.assert_array_equal(ds.labels, [[0.5], [1.5]])
        with pytest.raises(InvalidInputError, match="non-finite"):
            Dataset._adopt(np.array([[np.nan]]), [0.0])
        with pytest.raises(InvalidInputError, match="label rows"):
            Dataset._adopt(np.zeros((2, 1)), [0.0])

    def test_classification_labels_must_be_integral(self):
        with pytest.raises(InvalidInputError):
            Dataset([[0.0]], [0.5], task="classification")


class TestDiagnosticsSerialization:
    def test_diagnostics_round_trip_as_json(self):
        import json

        ds = Dataset([[0.0], [1.0]], [[0.0], [1.0]])
        payload = json.loads(json.dumps(predict_point(ds, [0.4]).diagnostics()))
        assert payload["exit_reason"] in ("converged", "local_minimum", "round_cap")
        assert payload["h_star"] > 0
