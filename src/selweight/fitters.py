"""Regression fitters: weighted binary logistic, multinomial, and simplex.

All three solve their score equations with the shared Newton kernel and
analytic Jacobians.  Each fit's score evaluates its probabilities once per
trial point and returns the residual with a closure that forms the
Jacobian from them.  The weighted logistic fitter covers the unweighted fit
as the special case of unit selection probabilities.  Every Jacobian, and
every sandwich block in the variance module, is a weighted cross-product
``a' diag(v) b`` of n-by-p designs, formed by :func:`weighted_cross`; like
the other kernels here, it runs its element-wise loops along the n rows,
never along the few columns.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOutcomeError,
    EmptyCategoryError,
    NonConvergenceError,
    RankDeficientDesignError,
    ResponseOnBoundaryError,
    SeparationError,
    SingularJacobianError,
    ValidationError,
)
from .solver import SolveReport, solve_estimating_equation

# expit(SEPARATION_BOUND) is 1 to machine precision, so coefficients beyond
# it indicate separated data rather than a meaningful optimum.
SEPARATION_BOUND = 30.0

# The one multinomial model fitted is SR's three-way sample membership
# (weights.BOTH_SAMPLES, INTERNAL_ONLY, EXTERNAL_ONLY).
MULTINOMIAL_CATEGORIES = 3


def expit(x, *, out=None):
    """Numerically stable inverse logit, branch-free.

    With ``e = exp(-|x|)`` the result is ``maximum(e, x >= 0) / (1 + e)``:
    for x >= 0 the numerator is 1 (e <= 1), giving ``1/(1+exp(-x))``, and
    for x < 0 it is e, giving ``exp(x)/(1+exp(x))``; a NaN keeps e's own
    NaN.  These are the operations of the two-branch form, so every value
    matches it bit for bit.  ``-|x|`` is taken as ``minimum(x, -x)``, which
    keeps a NaN's sign as the two-branch form does.  The shorter
    ``(1 + tanh(x/2))/2`` is not used: it loses relative accuracy for small
    probabilities, the range ``weights.PI_FLOOR`` guards.  Given ``out``,
    an array of ``x``'s shape that may be ``x`` itself, the probabilities
    are written there and ``out`` is returned.
    """
    x = np.asarray(x, dtype=float)
    # ``out=`` keeps 0-d inputs as arrays, which the in-place steps need.
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    # ``x >= 0`` is taken before ``out``, which may be ``x``, is written.
    res = np.maximum(e, x >= 0, out=np.empty_like(x) if out is None else out)
    e += 1.0
    res /= e
    if out is not None:
        return out
    return res if res.ndim else float(res)


# weighted_cross weights its rows in blocks of about this many elements, so
# that a block of the design and of its weighted copy stay in a core's cache
# while each of their columns is passed over in turn.
CROSS_BLOCK_ELEMENTS = 2**16


def weighted_cross(a, v, b):
    """``a' diag(v) b``, bit for bit equal to ``(a.T * v) @ b``.

    ``a`` is n-by-p, ``v`` has length n and ``b`` has n rows.  The broadcast
    ``a.T * v`` loops over the p columns of one row at a time; here each
    column is weighted by one ufunc call per row block, along n.  The
    weighted copy takes ``a``'s memory order, as the broadcast's result
    does, so its transpose is the operand the broadcast makes (for a
    C-ordered ``a``, an F-ordered p-by-n matrix) and the product is the
    same BLAS call on the same bits.  To negate the product, negate ``v``:
    ``-(a.T * v) @ b`` is ``weighted_cross(a, -v, b)``, signed zeros
    included.
    """
    a = np.asarray(a, dtype=float)
    n, p = a.shape
    weighted = np.empty_like(a)
    rows = max(1, CROSS_BLOCK_ELEMENTS // max(p, 1))
    for lo in range(0, n, rows):
        block = v[lo : lo + rows]
        for j in range(p):
            np.multiply(a[lo : lo + rows, j], block,
                        out=weighted[lo : lo + rows, j])
    return weighted.T @ b


def numeric_array(values, what, dtype=float):
    """``values`` as an array of ``dtype``; text or any other entry that
    does not convert raises ``ValidationError("<what> must be numbers")``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numbers") from None


def row_vector(values, n, what, dtype=float):
    """``values`` flattened to a vector of ``dtype`` (None keeps its own),
    which must hold one entry per design row, ``n`` in all."""
    v = numeric_array(values, what, dtype).ravel()
    if v.size != n:
        raise ValidationError(f"{what} have {v.size} entries for {n} design rows")
    return v


def row_mask(values, n, what):
    """The :func:`row_vector` of ``n`` flags ``what`` as bools.  Each entry
    must be a bool or a number equal to 0 or 1; text, NaN or any other
    number raises ``ValidationError`` naming ``what``."""
    m = row_vector(values, n, what, dtype=None)
    if m.dtype == bool:
        return m
    if m.dtype.kind not in "iuf" or not np.all((m == 0) | (m == 1)):
        raise ValidationError(f"{what} must be bools or numbers equal to 0 or 1")
    return m == 1


def probability_vector(p, n, what, rows=None):
    """The entries at ``rows`` (an index array or mask; all by default) of
    the :func:`row_vector` ``what`` of ``n`` probabilities, each in (0, 1]."""
    p = row_vector(p, n, what)
    if rows is not None:
        p = p[rows]
    # Two reductions and no temporaries; a NaN makes the minimum NaN.
    if not (p.min(initial=1.0) > 0.0 and p.max(initial=0.0) <= 1.0):
        flagged = "" if rows is None else " on the flagged rows"
        raise ValidationError(f"{what} must lie in (0, 1]{flagged}")
    return p


def binary_outcome(outcome, n):
    """The :func:`row_vector` of ``n`` outcomes; each must be 0 or 1 (NaN is
    neither)."""
    d = row_vector(outcome, n, "outcomes")
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ValidationError("outcome must be coded 0/1")
    return d


def coefficients_for(x, coef, what, ndim=1):
    """``coef`` as a float array of ``ndim`` axes whose last axis has one
    entry per column of the design matrix ``x``, each finite; otherwise a
    ValidationError names ``what``.  Public calls check here, never a trial."""
    coef = numeric_array(coef, what)
    p = x.shape[1]
    if coef.ndim != ndim or coef.shape[-1] != p:
        expected = f"(k, {p})" if ndim == 2 else f"({p},)"
        raise ValidationError(f"{what} have shape {coef.shape}, not "
                              f"{expected} for a design of {p} columns")
    if not np.all(np.isfinite(coef)):
        raise ValidationError(f"{what} must be finite")
    return coef


def population_size(value, what):
    """``value`` as a float; it must be a positive finite real number, and
    no bool."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 < value < math.inf):
        raise ValidationError(f"{what} must be a positive finite number, "
                              f"got {value!r}")
    return float(value)


@dataclass
class DesignMatrix:
    """A validated n-by-p design with named columns.

    When ``has_intercept`` is set, column 0 must be identically one.
    """

    matrix: np.ndarray
    column_names: list
    has_intercept: bool = True

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(
            numeric_array(self.matrix, "design matrix entries"))
        if not isinstance(self.column_names, (list, tuple)):
            raise ValidationError("column_names must be a list of names")
        if self.matrix.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
        if self.matrix.shape[1] == 0:
            raise ValidationError("design matrix has no columns")
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("design matrix contains non-finite entries")
        if len(self.column_names) != self.matrix.shape[1]:
            raise ValidationError("column_names length does not match design width")
        if self.has_intercept and not np.all(self.matrix[:, 0] == 1.0):
            raise ValidationError("has_intercept set but column 0 is not all ones")

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def p(self):
        return self.matrix.shape[1]


def build_design(columns, names=None):
    """The :class:`DesignMatrix` of an intercept followed by ``columns``.

    ``columns`` is a non-empty sequence of equal-length 1-d arrays or
    sequences; ``names`` labels them (defaults to x1, x2, ...), and the
    intercept is named ``intercept``.  The C-ordered matrix is filled one
    column at a time.
    """
    cols = [numeric_array(c, "design columns").ravel() for c in columns]
    if not cols:
        raise ValidationError("at least one design column is required")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValidationError("design columns have unequal lengths")
    if names is None:
        names = [f"x{i + 1}" for i in range(len(cols))]
    matrix = np.empty((n, len(cols) + 1))
    matrix[:, 0] = 1.0
    for j, column in enumerate(cols, 1):
        matrix[:, j] = column
    return DesignMatrix(matrix, ["intercept", *names])


@dataclass
class FittedModel:
    """Coefficients plus diagnostics for one converged fit.

    ``coefficients`` is a vector for logistic/simplex fits and a
    (categories-1, p) matrix for multinomial fits.  ``vcov`` stays None until
    a variance estimator fills it in.  ``dispersion`` holds the simplex
    scale estimate where applicable.
    """

    coefficients: np.ndarray
    report: SolveReport
    model_kind: str
    column_names: list = field(default_factory=list)
    vcov: Optional[np.ndarray] = None
    dispersion: Optional[float] = None

    def linear_predictor(self, design):
        x = coerce_design(design).matrix
        return x @ coefficients_for(x, np.ravel(self.coefficients),
                                    "coefficients")

    def probabilities(self, design):
        """Fitted success probabilities (logistic/simplex mean model)."""
        if self.model_kind == "multinomial":
            return multinomial_probabilities(self.coefficients, design)
        return expit(self.linear_predictor(design))


def coerce_design(design, names=None):
    """``design`` as a :class:`DesignMatrix`: itself if it is one, else the
    2-d array, copied to C order if it is not, validated as a design without
    an asserted intercept, its columns named ``names`` (default x0, x1, ...)."""
    if isinstance(design, DesignMatrix):
        return design
    matrix = numeric_array(design, "design entries")
    if matrix.ndim != 2:
        raise ValidationError("design must be a 2-d array or DesignMatrix")
    if names is None:
        names = [f"x{i}" for i in range(matrix.shape[1])]
    return DesignMatrix(matrix, list(names), has_intercept=False)


def solve_fit(what, score, init):
    """The converged Newton solve of the ``score`` of the fit ``what``.

    A singular Jacobian is raised as a :class:`RankDeficientDesignError`
    naming the fit, and a solve that stops unconverged as a
    :class:`NonConvergenceError` whose ``report`` is the solve's.
    """
    try:
        report = solve_estimating_equation(score, init)
    except SingularJacobianError as exc:
        raise RankDeficientDesignError(
            f"{what}: design is rank deficient: {exc}") from exc
    if not report.converged:
        raise NonConvergenceError(
            f"{what} did not converge: {report.message} "
            f"(residual {report.final_residual_norm:.3e} after "
            f"{report.iterations} iterations)", report)
    return report


def _solve_guarded(what, score, init):
    """:func:`solve_fit` of a logistic-family fit, with a
    coefficient-magnitude guard on its score."""

    def guarded(theta):
        if np.max(np.abs(theta)) > SEPARATION_BOUND:
            raise SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND:g}; "
                "data appear separated"
            )
        return score(theta)

    return solve_fit(what, guarded, init)


def fit_weighted_logistic(design, outcome, pi=None):
    """Inverse-probability-weighted logistic regression.

    Solves ``(1/n) sum (1/pi_i) (d_i - expit(theta'z_i)) z_i = 0`` for 0/1
    outcomes ``d`` and selection probabilities ``pi`` in (0, 1], one of each
    per design row.  Passing ``pi=None`` (or all ones) gives the ordinary
    unweighted fit.  A solve that stops unconverged raises the
    :class:`NonConvergenceError` of :func:`solve_fit`.  The variance slot of
    the returned model is left empty; the variance module fills it with the
    appropriate sandwich estimator.
    """
    design = coerce_design(design)
    x = design.matrix
    n, p = x.shape
    d = binary_outcome(outcome, n)
    if n < p:
        raise ValidationError(f"need at least {p} rows, got {n}")
    if d.min() == d.max():
        raise DegenerateOutcomeError("outcome is constant; no model is identified")
    if pi is None:
        w = np.ones(n)
    else:
        w = 1.0 / probability_vector(pi, n, "selection probabilities")

    def score(theta):
        mu = expit(x @ theta)
        return ((x.T @ (w * (d - mu))) / n,
                lambda: weighted_cross(x, -(w * mu * (1.0 - mu)), x) / n)

    report = _solve_guarded("weighted logistic fit", score, np.zeros(p))
    return FittedModel(report.solution, report, "logistic",
                       list(design.column_names))


def multinomial_probabilities(coef, design):
    """Per-unit category probabilities for a baseline-category logit model.

    ``coef`` has one row per non-reference category; the reference category
    (index 0) has implicit zero coefficients.  Rows of the result sum to 1.
    """
    x = coerce_design(design).matrix
    return category_probabilities(
        x, coefficients_for(x, coef, "multinomial coefficients", ndim=2))


def category_probabilities(x, b):
    """:func:`multinomial_probabilities` of a design matrix, unchecked.

    Each row is shifted by its largest linear predictor (at least the
    reference's 0) before exponentiating; row sums add the columns left to
    right.  Every step runs one column at a time, along the rows.
    """
    lin = x @ b.T
    top = np.zeros(lin.shape[0])
    for column in lin.T:
        np.maximum(top, column, out=top)
    probs = np.empty((lin.shape[0], lin.shape[1] + 1))
    np.negative(top, out=probs[:, 0])
    for column, out in zip(lin.T, probs[:, 1:].T):
        np.subtract(column, top, out=out)
    np.exp(probs, out=probs)
    total = probs[:, 0].copy()
    for column in probs[:, 1:].T:
        total += column
    for column in probs.T:
        column /= total
    return probs


def fit_multinomial(design, category):
    """Baseline-category multinomial logistic regression.

    Category 0 is the reference level.  Every level in
    ``range(MULTINOMIAL_CATEGORIES)`` must be observed at least once.
    """
    design = coerce_design(design)
    x = design.matrix
    n, p = x.shape
    c = row_vector(category, n, "categories", dtype=None)
    k = MULTINOMIAL_CATEGORIES - 1
    # One comparison per category: np.isin takes ten times as long here.
    known = np.zeros(c.shape, dtype=bool)
    for j in range(MULTINOMIAL_CATEGORIES):
        known |= c == j
    if not np.all(known):
        raise ValidationError(f"categories must lie in 0..{k}")
    counts = np.bincount(c.astype(int), minlength=MULTINOMIAL_CATEGORIES)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0).tolist()
        raise EmptyCategoryError(f"no observations in categories {missing}")
    # Row j holds the indicators of category j + 1.
    indicators = np.empty((k, n))
    for j, row in enumerate(indicators):
        np.equal(c, j + 1, out=row)

    def score(beta):
        probs = category_probabilities(x, beta.reshape(k, p))
        # indicators - probs[:, 1:], as the C-ordered n-by-k array that
        # difference is, filled one column at a time.
        diff = np.empty((n, k))
        for j in range(k):
            np.subtract(indicators[j], probs[:, j + 1], out=diff[:, j])
        return (diff.T @ x).ravel() / n, lambda: jacobian(probs)

    def jacobian(probs):
        jac = np.empty((k * p, k * p))
        for a in range(k):
            pa = probs[:, a + 1]
            for b in range(a, k):
                pb = probs[:, b + 1]
                # pa * (0 - pb) and pb * (0 - pa) are equal bit for bit, so
                # one block serves both (a, b) and (b, a).
                wgt = pa * ((1.0 if a == b else 0.0) - pb)
                block = weighted_cross(x, -wgt, x) / n
                jac[a * p : (a + 1) * p, b * p : (b + 1) * p] = block
                jac[b * p : (b + 1) * p, a * p : (a + 1) * p] = block
        return jac

    report = _solve_guarded("multinomial fit", score, np.zeros(k * p))
    return FittedModel(report.solution.reshape(k, p), report, "multinomial",
                       list(design.column_names))


def simplex_unit_deviance(y, mu):
    """Unit deviance of the simplex distribution for proportions."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return (y - mu) ** 2 / (y * (1.0 - y) * mu**2 * (1.0 - mu) ** 2)


def _simplex_score_weights(y, mu):
    # a(y, mu) such that the dispersion-free score is sum a/(y(1-y)) * x.
    r = y - mu
    v = mu * (1.0 - mu)
    return r / v + r**2 * (1.0 - 2.0 * mu) / v**2


def _simplex_score_slopes(y, mu):
    # d a / d mu, used for the analytic Jacobian of the score.
    r = y - mu
    v = mu * (1.0 - mu)
    one_minus_2mu = 1.0 - 2.0 * mu
    return (
        -1.0 / v
        - 3.0 * r * one_minus_2mu / v**2
        - 2.0 * r**2 / v**2
        - 2.0 * r**2 * one_minus_2mu**2 / v**3
    )


def fit_simplex_regression(design, response):
    """Simplex-distribution regression for responses strictly inside (0, 1).

    The mean model is ``logit(E[y|x]) = delta'x``.  The coefficient solve is
    free of the dispersion, which is then profiled as the mean unit deviance
    at the solution and stored in ``dispersion``.
    """
    design = coerce_design(design)
    x = design.matrix
    n, p = x.shape
    y = row_vector(response, n, "responses")
    inside = (y > 0.0) & (y < 1.0)  # NaN is not
    if not np.all(inside):
        bad = int(np.flatnonzero(~inside)[0])
        raise ResponseOnBoundaryError(
            f"response at index {bad} is outside the open interval (0, 1)"
        )
    if n < p:
        raise ValidationError(f"need at least {p} rows, got {n}")
    ylogit = y * (1.0 - y)

    def ql_score(delta):
        mu = expit(x @ delta)
        return ((x.T @ (y - mu)) / n,
                lambda: weighted_cross(x, -(mu * (1.0 - mu)), x) / n)

    init_report = _solve_guarded("quasi-likelihood initialization", ql_score,
                                 np.zeros(p))

    def score(delta):
        mu = expit(x @ delta)
        return ((x.T @ (_simplex_score_weights(y, mu) / ylogit)) / n,
                lambda: weighted_cross(
                    x, _simplex_score_slopes(y, mu) * mu * (1.0 - mu) / ylogit,
                    x) / n)

    report = _solve_guarded("simplex regression", score, init_report.solution)
    mu_hat = expit(x @ report.solution)
    sigma2 = float(np.mean(simplex_unit_deviance(y, mu_hat)))
    return FittedModel(report.solution, report, "simplex",
                       list(design.column_names), dispersion=sigma2)
