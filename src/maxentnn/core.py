"""Self-tuning maximum-entropy neighbor prediction.

Every query is handled independently, with no training phase. The predictor
screens the dataset with a Gaussian similarity filter, sweeps the similarity
bandwidth and keeps the value that maximizes the mean Gibbs entropy of the
retained neighbors, then iterates a nonnegative interpolation solve so the
neighbors reconstruct the query as a convex combination. Regression labels
are blended with those weights; classification takes the neighborhood mode.

Because nothing is fitted ahead of time, rows may be appended to the dataset
between queries and are picked up immediately.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateNeighborhoodError,
    InvalidInputError,
    MaxentError,
    NumericalFailureError,
    ParameterError,
)

__all__ = [
    "MaxEntParams",
    "Dataset",
    "ConvexSubset",
    "Prediction",
    "PredictionFailure",
    "filter_convex",
    "optimize_bandwidth",
    "predict_regression",
    "predict_classification",
    "predict_point",
    "predict_batch",
]


@dataclass(frozen=True)
class MaxEntParams:
    """Thresholds and iteration caps steering a single prediction.

    The six tolerances and caps control the two nested loops of the
    predictor; ``q1_initial_error`` seeds the stall detector and
    ``q2_hfilter_increment`` is the fraction of the initial filter radius
    added to it after each unconverged outer round. ``sweep_points`` sizes
    the bandwidth search grid and ``max_minconvex_rounds`` bounds the outer
    loop so the predictor always terminates.
    """

    threshold_filter: float = 0.01
    threshold_entropy: float = 0.01
    convergence_tolerance: float = 0.01
    it_convergence: int = 20
    local_min_tolerance: float = 1e-9
    it_local_min: int = 1000
    q1_initial_error: float = 1e6
    q2_hfilter_increment: float = 0.25
    sweep_points: int = 64
    max_minconvex_rounds: int = 20

    def __post_init__(self):
        positive = (
            "threshold_filter",
            "threshold_entropy",
            "convergence_tolerance",
            "local_min_tolerance",
            "q1_initial_error",
            "q2_hfilter_increment",
        )
        # a bool is an int, but True is no count or tolerance
        for name in positive:
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be strictly positive and finite, got {v!r}")
        for name in ("threshold_filter", "threshold_entropy"):
            if getattr(self, name) >= 1.0:
                raise ParameterError(f"{name} compares similarities in (0, 1] and must be < 1")
        counts = ("it_convergence", "it_local_min", "sweep_points", "max_minconvex_rounds")
        for name in counts:
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, int) and v >= 1):
                raise ParameterError(f"{name} must be an integer >= 1, got {v!r}")
        if self.sweep_points < 2:
            raise ParameterError("sweep_points must be >= 2 to bracket a bandwidth optimum")


def _as_point(values, n_features: int | None = None, name: str = "query") -> np.ndarray:
    q = np.asarray(values, dtype=float)
    if q.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-D coordinate vector, got shape {q.shape}")
    if n_features is not None and q.size != n_features:
        raise InvalidInputError(f"{name} has {q.size} coordinates, dataset has {n_features} features")
    if not np.all(np.isfinite(q)):
        raise InvalidInputError(f"{name} contains non-finite coordinates")
    return q


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable training set: an ``(m, n)`` array of points, one feature
    row per point, plus labels.

    ``task`` is ``"regression"`` (labels stored as an ``(m, n_y)`` float
    array) or ``"classification"`` (labels stored as an ``(m,)`` integer
    array). Arrays are copied, checked by ``_checked_rows`` and marked
    read-only, so a Dataset can be shared freely across concurrent readers;
    like ``Prediction``, it compares and hashes by identity.

    The points live in one read-only C-ordered ``(m, n + 1)`` array
    ``[X | 1]`` whose last column is 1.0: ``points`` is its ``[:, :n]``
    view, whose rows are contiguous with a stride of n + 1 values, and the
    whole-table operator ``[X^T; 1]`` is its transpose, so the table is
    held once whatever layout the points were given in. An ``OnlineStore``
    makes its snapshots with ``_prefix``. ``copy.copy`` returns the Dataset
    itself; a deep copy or an unpickled one is rebuilt by the constructor.

    Features should be pre-normalized so the bulk of coordinates lies in
    [-1, 1]; the default thresholds assume that scale.
    """

    points: np.ndarray
    labels: np.ndarray
    task: str = "regression"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidInputError(f"points must be a nonempty 2-D array, got shape {pts.shape}")
        rows = _with_ones(pts)
        self._hold(rows, _checked_rows(rows, self.labels, self.task))

    @classmethod
    def _prefix(cls, rows: np.ndarray, labels: np.ndarray, m: int) -> "Dataset":
        """A regression Dataset over the first m rows of two C-ordered
        arrays, ``[X | 1]`` rows and their labels, whose first m rows
        ``_checked_rows`` has passed: an ``OnlineStore``'s built table or
        the prefix of its buffer. It holds read-only ``[:m]`` views, which
        have the strides of an exact-sized array; rows written past m later
        do not change it."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "task", "regression")
        ds._hold(rows[:m], labels[:m])
        return ds

    def _hold(self, rows: np.ndarray, labels: np.ndarray):
        """Store checked ``[X | 1]`` rows and labels read-only."""
        rows.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        # a view taken after the freeze is read-only too
        object.__setattr__(self, "points", rows[:, :-1])
        object.__setattr__(self, "labels", labels)

    def __copy__(self) -> "Dataset":
        # immutable: a shallow copy is the Dataset itself
        return self

    def __deepcopy__(self, memo) -> "Dataset":
        # the constructor makes the one copy; deep-copying its arguments first would be a second
        return type(self)(self.points, self.labels, self.task)

    def __reduce__(self):
        # the constructor copies a snapshot's m rows, not its buffer
        return type(self), (self.points, self.labels, self.task)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _whole_table(self) -> "_Neighborhood":
        """The solver's operator over every row, built on first use.

        A query far from every row blends the whole table, and every such
        query on this Dataset shares the operator and its step; an append
        makes a new Dataset, which builds its own. The operator is a view
        of the Dataset's own ``[X | 1]`` rows, copied only when n = 1 (see
        ``_neighborhood``).
        """
        return _neighborhood(self._rows)


def _checked_rows(rows: np.ndarray, labels, task: str, start: int = 0) -> np.ndarray:
    """Check a ``Dataset``'s C-ordered ``(m, n + 1)`` rows ``[X | 1]`` from
    row ``start`` on, whose last column is set to ones here, and the labels
    of those rows; returns the labels as a ``Dataset`` stores them.

    The rules: at least one point and one feature, finite rows, labels that
    fit ``task`` and one label row per point. The constructor, the
    ``OnlineStore`` build and its appends all check here; an append passes
    its k rows' start, so it pays O(k·n).
    """
    pts = rows[:, :-1]
    if pts.shape[0] < 1 or pts.shape[1] < 1:
        raise InvalidInputError(f"points must be a nonempty 2-D array, got shape {pts.shape}")
    new = rows[start:]
    new[:, -1] = 1.0
    # the contiguous rows are checked at about twice the speed of the view
    if not np.all(np.isfinite(new)):
        raise InvalidInputError("points contain non-finite coordinates")

    if task == "regression":
        lab = np.array(labels, dtype=float)
        if lab.ndim == 1:
            lab = lab.reshape(-1, 1)
        if lab.ndim != 2 or lab.shape[1] < 1:
            raise InvalidInputError(f"regression labels must be (m, n_y), got shape {lab.shape}")
        if not np.all(np.isfinite(lab)):
            raise InvalidInputError("labels contain non-finite values")
    elif task == "classification":
        raw = np.asarray(labels)
        if raw.ndim != 1:
            raise InvalidInputError(f"classification labels must be 1-D, got shape {raw.shape}")
        # text, objects (Python ints past int64 among them) and complex numbers are no class ids
        if raw.dtype.kind not in "biuf":
            raise InvalidInputError(f"class ids must be int64 integers, got {raw.dtype} labels")
        if raw.dtype.kind == "f":
            if not np.all(np.isfinite(raw)) or not np.all(raw == np.round(raw)):
                raise InvalidInputError("class ids must be integral")
            # int64 holds [-2**63, 2**63); a cast of any other id wraps
            if not np.all((raw >= -2.0**63) & (raw < 2.0**63)):
                raise InvalidInputError("class ids must lie in the int64 range")
        lab = raw.astype(np.int64)
        if raw.dtype.kind == "u" and np.any(lab < 0):  # an id past 2**63 - 1 wrapped
            raise InvalidInputError("class ids must lie in the int64 range")
    else:
        raise InvalidInputError(f"unknown task {task!r}")

    if start + lab.shape[0] != rows.shape[0]:
        raise InvalidInputError(f"{rows.shape[0]} points but {start + lab.shape[0]} label rows")
    return lab


def _with_ones(points: np.ndarray) -> np.ndarray:
    """A new C-ordered ``(m, n + 1)`` array ``[points | 1]``."""
    rows = np.empty((points.shape[0], points.shape[1] + 1))
    rows[:, :-1] = points
    rows[:, -1] = 1.0
    return rows


@dataclass(frozen=True)
class ConvexSubset:
    """Rows retained by a similarity filter around one query.

    ``indices`` are dataset row numbers (ascending), ``sq_distances`` those
    rows' squared distances to the query, ``rbf_values`` the Gaussian
    similarities ``exp(-d^2 / h^2)`` that admitted them and ``bandwidth``
    the radius ``h`` used.
    """

    indices: np.ndarray
    sq_distances: np.ndarray
    rbf_values: np.ndarray
    bandwidth: float

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class WeightSolution:
    """Outcome of the nonnegative interpolation solve.

    ``residual_error`` is the (relative) distance between the query and its
    reconstruction from the neighbors, ``weight_sum_gap`` is ``|1 - sum(u)|``.
    ``converged`` is True when ``residual_error + weight_sum_gap`` fell below
    the convergence tolerance after the minimum iteration count.
    ``iterations`` counts the specified loop, including iterations skipped
    after an exact fixed point because they would repeat it.
    ``extrapolated`` is True when the solve stopped early because a duality
    bound proved that no nonnegative weights reach the tolerance: the query
    lies too far outside its neighbors' convex hull.
    """

    weights: np.ndarray
    residual_error: float
    weight_sum_gap: float
    iterations: int
    converged: bool
    extrapolated: bool = False


@dataclass(frozen=True, eq=False)
class Prediction:
    """A label estimate plus the diagnostics of how it was reached.

    ``exit_reason`` is one of ``"converged"``, ``"local_minimum"`` or
    ``"round_cap"``. ``bandwidth`` is the entropy-optimal radius (0.0 when
    the query duplicated a training point and no sweep ran).
    ``neighbor_indices`` are the dataset rows the value was built from;
    ``neighbor_weights`` are the blend weights actually applied (regression)
    or the similarities of the voters (classification, where the weights
    play no role in the value). ``extrapolated`` is the flag of the last
    solve, whose neighborhood gave the value (see :class:`WeightSolution`);
    like the neighbor arrays it is not part of :meth:`diagnostics`.
    """

    value: object
    exit_reason: str
    bandwidth: float
    n_neighbors: int
    iterations: int
    residual_error: float
    weight_sum_gap: float
    rounds: int
    neighbor_indices: np.ndarray
    neighbor_weights: np.ndarray
    extrapolated: bool = False

    def diagnostics(self) -> dict:
        """The documented diagnostics as a JSON-ready dict."""
        return {
            "exit_reason": self.exit_reason,
            "h_star": self.bandwidth,
            "n_neighbors": self.n_neighbors,
            "iterations": self.iterations,
            "residual_error": self.residual_error,
            "weight_sum_gap": self.weight_sum_gap,
            "rounds": self.rounds,
        }


@dataclass(frozen=True)
class PredictionFailure:
    """Per-query failure marker used by batch prediction."""

    error: str
    message: str


_SCAN_BLOCK = 128


def _sq_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distance of every row of ``points`` to ``q``.

    The rows are scanned ``_SCAN_BLOCK`` at a time through one reused
    C-ordered buffer instead of two table-sized temporaries. Each row is
    still summed alone by numpy's pairwise reduction over that buffer, so
    the bits are those of ``np.sum((x - q) ** 2, axis=1)`` for a C-ordered
    ``x`` holding the same rows, whatever the row stride of ``points`` (a
    ``Dataset``'s rows are n + 1 values apart).
    """
    m = points.shape[0]
    d2 = np.empty(m)
    buf = np.empty((min(m, _SCAN_BLOCK), points.shape[1]))
    for start in range(0, m, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, m)
        t = buf[: stop - start]
        # a copy, then an in-place difference, reads a strided block as
        # fast as a contiguous one; a difference into t does not
        np.copyto(t, points[start:stop])
        np.subtract(t, q, out=t)
        np.multiply(t, t, out=t)
        np.sum(t, axis=1, out=d2[start:stop])
    return d2


def _duplicate(points: np.ndarray, q: np.ndarray, d2: np.ndarray) -> int | None:
    """The row ``q`` duplicates, given its squared distances ``d2`` to
    ``points``: the first equal to ``q``, failing that the first whose d²
    underflowed to zero, which is numerically the query; None if no d² is
    zero. An equal row has d² zero, so only those rows are compared."""
    zero = np.flatnonzero(d2 == 0.0)
    if not zero.size:
        return None
    exact = zero[np.all(points[zero] == q, axis=1)]
    return int(exact[0] if exact.size else zero[0])


def filter_convex(sq_distances, h: float, threshold: float) -> ConvexSubset:
    """Keep exactly the rows whose similarity to the query exceeds ``threshold``.

    ``sq_distances`` holds every candidate row's squared distance to the
    query, one entry per dataset row, so the returned ``indices`` are
    positions in it. A row's similarity is ``exp(-d^2 / h^2)``; the
    comparison is strict, so a row at distance d survives iff
    d < h * sqrt(-ln threshold). An empty result is a legal outcome; the
    caller decides whether to enlarge ``h``.
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ParameterError(f"bandwidth must be strictly positive and finite, got {h!r}")
    if not (0.0 < threshold < 1.0):
        raise ParameterError(f"threshold must lie in (0, 1), got {threshold!r}")
    d2 = np.asarray(sq_distances, dtype=float)
    if d2.ndim != 1:
        raise InvalidInputError(f"sq_distances must be a 1-D array, got shape {d2.shape}")
    # a NaN would fail the similarity test below and vanish silently
    if not np.all(np.isfinite(d2) & (d2 >= 0.0)):
        raise InvalidInputError("sq_distances must be finite and nonnegative")
    hsq = h * h
    if hsq == 0.0:
        # h underflowed: the h -> 0 limit keeps only exact coincidences
        vals = (d2 == 0.0).astype(float)
    else:
        # a subnormal hsq can overflow the ratio to inf; exp maps that to the
        # correct limit 0
        with np.errstate(over="ignore"):
            vals = np.exp(-d2 / hsq)
    keep = vals > threshold
    return ConvexSubset(np.flatnonzero(keep), d2[keep], vals[keep], float(h))


def optimize_bandwidth(prefilter: ConvexSubset, params: MaxEntParams) -> ConvexSubset:
    """Sweep candidate bandwidths and keep the mean-entropy maximizer.

    Candidates are ``params.sweep_points`` values spaced logarithmically
    between 0.25x the smallest nonzero distance and 4x the largest distance
    in ``prefilter.sq_distances``. Each candidate re-filters the prefiltered
    rows against ``params.threshold_entropy`` and scores the mean Gibbs
    entropy ``-mean(p ln p)`` of the admitted similarities; empty candidates
    are skipped. Returns the prefilter re-filtered at the winning bandwidth,
    which is its ``bandwidth``.
    """
    if prefilter.size == 0:
        raise DegenerateNeighborhoodError("prefilter is empty; enlarge the filter radius")
    d2 = prefilter.sq_distances

    d2max = float(d2.max())
    if d2max == 0.0:
        # Every member coincides with the query; any radius keeps them all.
        return ConvexSubset(prefilter.indices.copy(), d2.copy(), np.ones_like(d2), 1.0)
    d2min = float(d2[d2 > 0].min())

    grid = np.geomspace(0.25 * math.sqrt(d2min), 4.0 * math.sqrt(d2max), params.sweep_points)
    # squared grid values can underflow for subnormal distances; the
    # resulting infinite ratios give similarity 0 and are filtered out
    with np.errstate(divide="ignore", over="ignore"):
        ratios = d2[None, :] / (grid * grid)[:, None]
    p = np.exp(-ratios)
    admitted = p > params.threshold_entropy
    counts = admitted.sum(axis=1)
    # -p ln p == p * d^2/h^2 for a Gaussian similarity; this form never
    # evaluates log near 0 for members that underflowed
    contrib = np.zeros_like(p)
    np.multiply(p, ratios, out=contrib, where=admitted)
    entropy = np.where(counts > 0, contrib.sum(axis=1) / np.maximum(counts, 1), -np.inf)

    best = int(np.argmax(entropy))
    if counts[best] == 0:
        raise DegenerateNeighborhoodError("every candidate bandwidth filtered out all neighbors")
    keep = admitted[best]
    return ConvexSubset(prefilter.indices[keep], d2[keep], p[best][keep], float(grid[best]))


def _spectral_bound(kmat: np.ndarray) -> float:
    """Upper estimate of ||K||_2^2 by Lanczos on K^T K with a safety margin.

    Lanczos starts from ``ones(k) / sqrt(k)`` and runs at most 16 and at
    most k steps. ``theta``, the largest eigenvalue of the tridiagonal
    matrix built so far, rises toward ||K||_2^2; the loop ends once it
    moves by at most 1e-4 of itself, or once the Krylov space stops growing
    (a zero ``beta``), where ``theta`` is exact. The estimate is
    ``1.05 * theta``.
    """
    k = kmat.shape[1]
    v = np.ones(k) / math.sqrt(k)
    v_prev = np.zeros(k)
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    for _ in range(min(16, k)):
        w = kmat.T @ (kmat @ v)
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        if betas:
            w -= betas[-1] * v_prev
        # eigvalsh reads the lower triangle, so the subdiagonal suffices
        tri = np.diag(alphas) + np.diag(betas, -1)
        theta_prev, theta = theta, float(np.linalg.eigvalsh(tri)[-1])
        if len(alphas) > 1 and abs(theta - theta_prev) <= 1e-4 * theta:
            break
        beta = float(np.linalg.norm(w))
        if beta == 0.0:
            break
        betas.append(beta)
        v_prev, v = v, w / beta
    # K's last row is all ones, so theta >= ||K v0||^2 >= (sum of v0)^2 = k >= 1
    return 1.05 * theta


@dataclass(frozen=True, eq=False)
class _Neighborhood:
    """Neighbor rows prepared as the weight solve's operator.

    ``kmat`` is the read-only ``(n + 1, k)`` matrix ``[X^T; 1]``, the
    transpose of the rows ``[X | 1]`` (see ``_neighborhood``), and
    ``step`` the solve's gradient step ``1 / L``.
    """

    kmat: np.ndarray
    step: float

    def __len__(self) -> int:
        return self.kmat.shape[1]


def _neighborhood(rows: np.ndarray) -> _Neighborhood:
    """Prepare ``(k, n + 1)`` C-ordered rows ``[X | 1]`` of finite points
    for the weight solve.

    ``kmat`` is their transpose, a view, so a ``Dataset``'s whole table
    needs no second copy and a subset's operator is one gather of its rows.
    The layout of ``kmat`` decides the bits of the matrix-vector products.
    For n >= 2 it is the Fortran order of ``np.vstack([X^T, ones])`` of
    C-ordered rows; for n = 1 that stack is C-ordered, so the ``2 x k``
    operator is copied to C order.
    """
    kmat = rows.T
    if rows.shape[1] == 2:
        kmat = np.ascontiguousarray(kmat)
    kmat.setflags(write=False)
    return _Neighborhood(kmat, 1.0 / _spectral_bound(kmat))


def solve_weights(neighborhood: _Neighborhood, query: np.ndarray, initial_weights: np.ndarray,
                  params: MaxEntParams) -> WeightSolution:
    """Iterate nonnegative weights toward solving [X^T | 1] u = [X* | 1].

    One iteration is an accelerated projected gradient step on
    0.5 * ||K u - b||^2: a gradient step of size 1/L (L an upper bound on
    ||K||_2^2 from Lanczos, see ``_spectral_bound``), clamping negatives to
    zero, plus a momentum extrapolation that is dropped whenever the
    objective rises. The extrapolated point ``z = c + beta (c - u)`` is
    linear in the new and the last iterate, so its residual ``K z - b`` is
    formed from their two residuals, already computed, as
    ``r_c + beta (r_c - r_u)``. That residual differs from a fresh product
    by rounding only, and ``r_c`` and every test read fresh products, so
    the rounding does not build up; an iteration without a restart makes
    two products with K, not three. Momentum matters: the
    augmented system is ill-conditioned when the retained neighbors cluster
    tightly around the query, and an unaccelerated step cannot reach the
    tolerance within the iteration budget there.

    The loop exits as soon as ``residual_error + weight_sum_gap`` drops
    below ``params.convergence_tolerance`` after more than
    ``params.it_convergence`` iterations, and otherwise hands back an
    unconverged solution after ``params.it_local_min + 1`` iterations.
    At every iteration that is a multiple of ``params.it_convergence`` the
    loop also checks a lower bound on the error any nonnegative weights can
    reach. With ``r = K u - b`` and ``g = K^T r``, the point
    ``y = min(g) e_last - r`` has ``K^T y <= 0`` because K's last row is all
    ones, so by weak duality of nonnegative least squares
    ``b^T y / ||y|| <= ||K u - b||`` for every ``u >= 0``; and
    ``residual_error + weight_sum_gap >= min(1, 1/||q||) ||K u - b||``. Once
    ``min(1, 1/||q||) b^T y / ||y||`` reaches the tolerance the solve is
    certified unconvergeable and stops there, unconverged and
    ``extrapolated``. Each iteration runs the convergence test first, then
    this check. So ``it_convergence`` also sets how often the bound is
    checked: each check costs one more ``K^T r`` product, about half an
    iteration, which at ``it_convergence = 1`` every iteration of a
    solve that does not converge pays; a larger value delays certified
    stops to its next multiple.

    ``iterations`` counts that loop. Once a step taken from ``u`` lands on
    ``u`` bit for bit, every later step would repeat it, so the rest are
    skipped and the result is what running them out reports: converged at
    iteration ``it_convergence + 1`` when the repeated error is under the
    tolerance and that iteration is within the cap; otherwise, when the
    bound at ``u`` holds, extrapolated at the next multiple of
    ``it_convergence`` within the cap; otherwise unconverged after
    ``it_local_min + 1``.

    ``neighborhood`` is the operator ``predict_point`` prepares: the
    neighbor rows laid out as ``K`` with the step computed (see
    ``_neighborhood``). ``query`` is the checked query point and
    ``initial_weights`` the neighbors' similarities at the selected
    bandwidth. Nothing is checked again here: ``Dataset`` rows are finite,
    and ``predict_point`` has already answered any query at distance zero
    from a row.
    """
    kmat, step = neighborhood.kmat, neighborhood.step
    b = np.append(query, 1.0)
    kt = kmat.T
    q_norm = float(np.linalg.norm(query))
    error_scale = min(1.0, 1.0 / q_norm) if q_norm > 0.0 else 1.0

    def cannot_converge(r: np.ndarray) -> bool:
        y = -r
        y[-1] += float((kt @ r).min())
        y_norm = float(np.linalg.norm(y))
        return y_norm > 0.0 and error_scale * float(b @ y) / y_norm >= params.convergence_tolerance

    u = np.maximum(initial_weights, 0.0)
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
        restarted = obj_new > objective
        if restarted:
            # restart from the last accepted point without momentum
            momentum = 1.0
            candidate = np.maximum(u - step * (kt @ r), 0.0)
            r_new = kmat @ candidate - b
            obj_new = float(r_new @ r_new)
        # A step taken from u that lands on u is taken again by every later
        # iteration: z stays u, so u, r, the residual and the gap repeat.
        fixed_point = (
            obj_new == objective
            and (restarted or np.array_equal(z, u))
            and np.array_equal(candidate, u)
        )
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        z = candidate + beta * (candidate - u)
        rz = r_new + beta * (r_new - r)  # K z - b, see the docstring
        u, r, objective, momentum = candidate, r_new, obj_new, momentum_next

        head = r[:-1]
        diff = math.sqrt(float(head @ head))
        residual = diff / q_norm if q_norm > 0.0 else diff
        gap = abs(float(r[-1]))
        if residual + gap < params.convergence_tolerance and iterations > params.it_convergence:
            converged = True
            break
        if iterations % params.it_convergence == 0 and cannot_converge(r):
            extrapolated = True
            break
        if fixed_point:
            # report what running the repeats out would have reported
            if residual + gap < params.convergence_tolerance and params.it_convergence < max_iterations:
                converged = True
                iterations = params.it_convergence + 1
            else:
                check = (iterations // params.it_convergence + 1) * params.it_convergence
                extrapolated = check <= max_iterations and cannot_converge(r)
                iterations = check if extrapolated else max_iterations
            break

    if not (math.isfinite(residual) and math.isfinite(gap) and np.all(np.isfinite(u))):
        raise NumericalFailureError("weight iteration produced non-finite values")
    return WeightSolution(u, residual, gap, iterations, converged, extrapolated)


def predict_regression(weights, labels):
    """Blend label rows with the given weights: y_hat = sum(u_i * y_i)."""
    u = np.asarray(weights, dtype=float)
    lab = np.asarray(labels, dtype=float)
    if lab.shape[0] != u.size:
        raise InvalidInputError("weights must align with label rows")
    out = u @ lab
    return float(out) if np.ndim(out) == 0 else out


def predict_classification(subset_labels, distances=None) -> int:
    """Most frequent class among the subset labels.

    Ties are broken by the class of the nearest member when ``distances``
    are given, then by the smallest class id.
    """
    labels = np.asarray(subset_labels)
    if labels.size == 0:
        raise DegenerateNeighborhoodError("cannot classify from an empty subset")
    values, counts = np.unique(labels, return_counts=True)
    tied = values[counts == counts.max()]
    if tied.size == 1:
        return int(tied[0])
    if distances is not None:
        dist = np.asarray(distances, dtype=float)
        mask = np.isin(labels, tied)
        near = dist[mask].min()
        at_near = labels[mask][dist[mask] == near]
        return int(at_near.min())
    return int(tied.min())


def _initial_filter_radius(sq_distances: np.ndarray) -> float:
    """Distance to the ceil(sqrt(m))-th nearest neighbor (at least the 1st)."""
    m = sq_distances.size
    kth = min(m, max(1, math.ceil(math.sqrt(m))))
    return math.sqrt(float(np.partition(sq_distances, kth - 1)[kth - 1]))


def predict_point(dataset: Dataset, query, params: MaxEntParams | None = None) -> Prediction:
    """Predict the label of one query point.

    The query's squared distance to every row is computed once, by a
    blocked scan of the table (see ``_sq_distances``); the duplicate
    check, the initial filter radius, every round's prefilter and bandwidth
    sweep and the classification tie-break all read that one array.

    Outer loop: prefilter the dataset at the current filter radius, pick the
    entropy-optimal bandwidth, seed the weights with the similarities and run
    the weight solve. A converged solve exits immediately; otherwise, if the
    total error stalled against the previous round (within
    ``local_min_tolerance``), the current weights are accepted as a local
    minimum; else the filter radius grows and the loop repeats, up to
    ``max_minconvex_rounds`` rounds. A round that reselects the last solved
    neighborhood (same rows, same similarities) ends as a local minimum
    without a second solve: the solve is deterministic, so it would return
    the same weights and a zero change in total error. The filter radius
    only grows, so the prefilters are nested, and a prefilter of the size
    of the last solved round's holds the same rows: such a round ends as a
    local minimum before its bandwidth sweep, which would reselect the last
    neighborhood. A query that duplicates a training point (see
    ``_duplicate``) short-circuits to that point's label, so no solve sees
    a query at distance zero from one of its rows. Each solved
    neighborhood is prepared once as the operator ``solve_weights`` takes
    (see ``_neighborhood``); the whole table's is kept on the ``Dataset``
    for its later queries.
    """
    if params is None:
        params = MaxEntParams()
    q = _as_point(query, dataset.n_features)

    d2 = _sq_distances(dataset.points, q)
    i = _duplicate(dataset.points, q, d2)
    if i is not None:
        if dataset.task == "regression":
            value = dataset.labels[i].copy()
        else:
            value = int(dataset.labels[i])
        return Prediction(value, "converged", 0.0, 1, 0, 0.0, 0.0, 0,
                          np.array([i]), np.array([1.0]))

    h_filter = _initial_filter_radius(d2)
    increment = params.q2_hfilter_increment * h_filter
    error_old = params.q1_initial_error
    last: tuple[WeightSolution, ConvexSubset] | None = None
    solved_prefilter_size = -1
    exit_reason = "round_cap"
    rounds = 0

    for _ in range(params.max_minconvex_rounds):
        rounds += 1
        prefilter = filter_convex(d2, h_filter, params.threshold_filter)
        if prefilter.size == solved_prefilter_size:
            # h_filter only grows, so the prefilters are nested: this one
            # holds the last solved round's rows, and the sweep would
            # reselect its subset, which the test below ends as a stall.
            exit_reason = "local_minimum"
            break
        try:
            subset = optimize_bandwidth(prefilter, params)
        except DegenerateNeighborhoodError:
            h_filter += increment
            continue
        if (
            last is not None
            and np.array_equal(subset.indices, last[1].indices)
            and np.array_equal(subset.rbf_values, last[1].rbf_values)
        ):
            # The solve is deterministic, so it would return the last round's
            # weights bit for bit; that total equals error_old exactly, which
            # is a stall.
            last = (last[0], subset)
            exit_reason = "local_minimum"
            break
        if subset.size == dataset.n_points:
            neighborhood = dataset._whole_table
        else:
            neighborhood = _neighborhood(dataset._rows[subset.indices])
        solution = solve_weights(neighborhood, q, subset.rbf_values, params)
        last = (solution, subset)
        solved_prefilter_size = prefilter.size
        if solution.converged:
            exit_reason = "converged"
            break
        total = solution.residual_error + solution.weight_sum_gap
        if abs(total - error_old) < params.local_min_tolerance:
            exit_reason = "local_minimum"
            break
        error_old = total
        h_filter += increment

    if last is None:
        raise DegenerateNeighborhoodError(
            f"no admissible neighborhood after {rounds} filter expansions"
        )
    solution, subset = last

    if dataset.task == "regression":
        total_weight = float(solution.weights.sum())
        if total_weight > 0.0:
            blend = solution.weights / total_weight
        else:
            # Solver collapsed to all-zero weights; fall back to the raw
            # similarities, which are strictly positive by construction.
            blend = subset.rbf_values / subset.rbf_values.sum()
        # Unit-sum weights keep every output inside the neighbor label envelope.
        value = predict_regression(blend, dataset.labels[subset.indices])
        applied = blend
    else:
        value = predict_classification(dataset.labels[subset.indices], np.sqrt(subset.sq_distances))
        applied = subset.rbf_values

    return Prediction(
        value,
        exit_reason,
        subset.bandwidth,
        subset.size,
        solution.iterations,
        solution.residual_error,
        solution.weight_sum_gap,
        rounds,
        subset.indices,
        applied,
        solution.extrapolated,
    )


def predict_batch(
    dataset: Dataset,
    queries,
    params: MaxEntParams | None = None,
    parallelism: int = 1,
) -> list:
    """Predict every row of the ``(k, n)`` matrix ``queries``; failures
    are reported per element. An empty input gives an empty list.

    Each element of the result is a :class:`Prediction`, or a
    :class:`PredictionFailure` if that query raised a package error. The
    result order matches the query order and is independent of
    ``parallelism``: queries never share mutable state, so thread count
    cannot change any value.
    """
    if params is None:
        params = MaxEntParams()
    arr = np.asarray(queries, dtype=float)
    if arr.size == 0:
        return []
    if arr.ndim != 2 or arr.shape[1] != dataset.n_features:
        raise InvalidInputError(f"queries must be (n_queries, {dataset.n_features}), got {arr.shape}")

    def run(i: int):
        try:
            return predict_point(dataset, arr[i], params)
        except MaxentError as exc:
            # Package errors become per-element failure markers; anything
            # else is a bug and still propagates.
            return PredictionFailure(type(exc).__name__, str(exc))

    n = arr.shape[0]
    # more threads than cores only adds switching: the solver is CPU-bound
    workers = max(1, min(int(parallelism), os.cpu_count() or 1))
    if workers == 1:
        return [run(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n)))
