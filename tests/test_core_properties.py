"""Property-based tests of the predictor's structural invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxentnn import (
    Dataset,
    MaxEntParams,
    filter_convex,
    predict_point,
)
from maxentnn.core import _neighborhood, _with_ones, solve_weights

# trimmed caps keep hypothesis runs quick; every invariant is cap-independent
FAST = MaxEntParams(it_local_min=150, max_minconvex_rounds=6)


def _dyadic(draw, shape, lo=-16, hi=16, denom=8.0):
    ints = draw(arrays(np.int64, shape, elements=st.integers(lo, hi)))
    return ints / denom


@st.composite
def regression_problem(draw, dyadic=True, max_dim=3, max_points=24):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(2, max_points))
    if dyadic:
        pts = _dyadic(draw, (m, n))
        labels = _dyadic(draw, (m, 1), lo=-8, hi=8)
        query = _dyadic(draw, (n,))
    else:
        finite = st.floats(-2.0, 2.0, allow_nan=False, width=64)
        pts = draw(arrays(np.float64, (m, n), elements=finite))
        labels = draw(arrays(np.float64, (m, 1), elements=finite))
        query = draw(arrays(np.float64, (n,), elements=finite))
    return Dataset(pts, labels), query


@st.composite
def scattered_problem(draw, task="regression", max_dim=3, max_points=24):
    # seeded continuous scatter: rows and query distances are distinct
    # with probability one, so no draw ever needs to be filtered out
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(2, max_points))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(m, n))
    query = rng.uniform(-1.5, 1.5, size=n)
    if task == "regression":
        labels = rng.uniform(-1.0, 1.0, size=(m, 1))
    else:
        labels = rng.integers(0, 4, size=m)
    return Dataset(pts, labels, task=task), query


def _similarities(sq_distances, h):
    # a threshold below every similarity drawn here keeps all rows in order
    return filter_convex(sq_distances, h, threshold=1e-300).rbf_values


class TestRbfMonotonicity:
    @given(
        d1=st.floats(0.01, 3.0),
        factor=st.floats(1.01, 4.0),
        h=st.floats(0.5, 5.0),
    )
    def test_decreases_with_distance(self, d1, factor, h):
        d2 = d1 * factor
        near, far = _similarities([d1**2, d2**2], h)
        assert near > far

    @given(
        d=st.floats(0.05, 3.0),
        h1=st.floats(0.5, 5.0),
        factor=st.floats(1.01, 4.0),
    )
    def test_increases_with_bandwidth(self, d, h1, factor):
        assert _similarities([d**2], h1 * factor)[0] > _similarities([d**2], h1)[0]


class TestPredictionInvariants:
    @settings(max_examples=40, deadline=None)
    @given(problem=regression_problem(dyadic=False))
    def test_convex_hull_containment(self, problem):
        ds, query = problem
        pred = predict_point(ds, query, FAST)
        neighbor_labels = ds.labels[pred.neighbor_indices]
        lo = neighbor_labels.min(axis=0) - 1e-9
        hi = neighbor_labels.max(axis=0) + 1e-9
        assert np.all(pred.value >= lo) and np.all(pred.value <= hi)

    @settings(max_examples=40, deadline=None)
    @given(problem=regression_problem(dyadic=False))
    def test_converged_exit_meets_tolerance(self, problem):
        ds, query = problem
        pred = predict_point(ds, query, FAST)
        assert np.all(pred.neighbor_weights >= 0.0)
        if pred.exit_reason == "converged" and pred.iterations > 0:
            assert pred.residual_error + pred.weight_sum_gap < FAST.convergence_tolerance
            assert pred.iterations > FAST.it_convergence

    @settings(max_examples=25, deadline=None)
    @given(problem=regression_problem(dyadic=True), shift_ints=st.tuples(
        st.integers(-64, 64), st.integers(-64, 64), st.integers(-64, 64)))
    def test_translation_equivariance_of_neighborhood(self, problem, shift_ints):
        # dyadic coordinates and shifts make the translated coordinate
        # differences bitwise identical, so within one filter round the
        # distance-driven selections (membership, bandwidth) reproduce
        # exactly; the round cap keeps the relative-error stopping rule,
        # whose query-norm scaling is legitimately not shift-invariant,
        # from feeding back into the selection being compared
        ds, query = problem
        shift = np.array(shift_ints[: ds.n_features]) / 8.0
        moved = Dataset(ds.points + shift, ds.labels)
        one_round = MaxEntParams(it_local_min=150, max_minconvex_rounds=1)
        a = predict_point(ds, query, one_round)
        b = predict_point(moved, query + shift, one_round)
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        assert a.bandwidth == b.bandwidth
        hull = ds.labels[a.neighbor_indices]
        for pred in (a, b):
            assert np.all(pred.value >= hull.min(axis=0) - 1e-9)
            assert np.all(pred.value <= hull.max(axis=0) + 1e-9)

    def test_translation_equivariance_of_value_when_unique(self):
        # near-centroid query of a triangle: the convex representation is
        # unique, so a translated solve (staying within the normalized
        # coordinate regime the method assumes) lands on the same blend
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = np.array([[0.1], [0.7], [0.4]])
        query = np.array([0.375, 0.375])
        shift = np.array([0.625, -0.375])
        tight = MaxEntParams(convergence_tolerance=1e-6, it_local_min=50_000)
        a = predict_point(Dataset(pts, labels), query, tight)
        b = predict_point(Dataset(pts + shift, labels), query + shift, tight)
        assert a.exit_reason == b.exit_reason == "converged"
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        assert a.bandwidth == b.bandwidth
        np.testing.assert_allclose(a.value, [0.4375], atol=1e-4)
        np.testing.assert_allclose(a.value, b.value, atol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(problem=scattered_problem(), seed=st.integers(0, 2**31))
    def test_permutation_invariance(self, problem, seed):
        ds, query = problem
        perm = np.random.default_rng(seed).permutation(ds.n_points)
        shuffled = Dataset(ds.points[perm], ds.labels[perm])
        a = predict_point(ds, query, FAST)
        b = predict_point(shuffled, query, FAST)
        # column order changes float summation order inside the solver, and
        # momentum can amplify those last-ulp differences over the budget
        np.testing.assert_allclose(a.value, b.value, rtol=1e-6, atol=1e-9)
        assert set(perm[b.neighbor_indices]) == set(a.neighbor_indices)
        assert a.bandwidth == b.bandwidth

    @settings(max_examples=40, deadline=None)
    @given(problem=scattered_problem(), j=st.integers(0, 10**6))
    def test_duplicate_query_is_exact(self, problem, j):
        ds, _ = problem
        row = j % ds.n_points
        pred = predict_point(ds, ds.points[row], FAST)
        np.testing.assert_array_equal(pred.value, ds.labels[row])
        assert pred.exit_reason == "converged"

    @settings(max_examples=30, deadline=None)
    @given(problem=regression_problem(dyadic=False))
    def test_determinism(self, problem):
        ds, query = problem
        a = predict_point(ds, query, FAST)
        b = predict_point(ds, query, FAST)
        np.testing.assert_array_equal(a.value, b.value)
        assert a.diagnostics() == b.diagnostics()

    @settings(max_examples=30, deadline=None)
    @given(problem=scattered_problem(task="classification"),
           mapping=st.permutations(list(range(4))))
    def test_classification_commutes_with_relabeling(self, problem, mapping):
        # scattered draws have distinct query distances, so the vote never
        # reaches the smallest-class-id fallback, the one deliberate tie
        # rule an arbitrary relabeling cannot respect
        ds, query = problem
        relabeled = Dataset(
            ds.points, np.array([mapping[int(c)] for c in ds.labels]), task="classification"
        )
        a = predict_point(ds, query, FAST)
        b = predict_point(relabeled, query, FAST)
        assert b.value == mapping[a.value]


class TestSolverInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 10),
        n=st.integers(1, 4),
    )
    def test_weights_nonnegative_and_tolerance_on_convergence(self, data, k, n):
        finite = st.floats(-2.0, 2.0, allow_nan=False, width=64)
        pts = data.draw(arrays(np.float64, (k, n), elements=finite))
        query = data.draw(arrays(np.float64, (n,), elements=finite))
        init = np.exp(-np.sum((pts - query) ** 2, axis=1))
        params = MaxEntParams(it_local_min=150)
        sol = solve_weights(_neighborhood(_with_ones(pts)), query, init, params)
        assert np.all(sol.weights >= 0.0)
        if sol.converged:
            assert sol.residual_error + sol.weight_sum_gap < params.convergence_tolerance


class TestBandwidthAnalyticOptimum:
    @settings(max_examples=50, deadline=None)
    @given(
        d=st.floats(0.05, 3.0),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_single_neighbor_returns_distance(self, d, n, seed):
        from maxentnn import optimize_bandwidth

        rng = np.random.default_rng(seed)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        pts = (d * direction).reshape(1, n)
        ds = Dataset(pts, [[0.0]])
        params = MaxEntParams()
        sq_distances = np.sum(ds.points ** 2, axis=1)
        prefilter = filter_convex(sq_distances, h=2.0 * d, threshold=params.threshold_filter)
        h_star = optimize_bandwidth(prefilter, params).bandwidth
        one_step = math.log(16.0) / (params.sweep_points - 1)
        observed = abs(math.log(h_star / np.linalg.norm(pts[0])))
        assert observed <= one_step + 1e-9
