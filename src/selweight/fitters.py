"""Regression fitters: weighted binary logistic, multinomial, and simplex.

All three solve their score equations with the shared Newton kernel and
analytic Jacobians.  The weighted logistic fitter covers the unweighted fit
as the special case of unit selection probabilities.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOutcomeError,
    EmptyCategoryError,
    NonConvergenceError,
    ResponseOnBoundaryError,
    SeparationError,
    ValidationError,
)
from .solver import SolveReport, solve_estimating_equation

# expit(SEPARATION_BOUND) is 1 to machine precision, so coefficients beyond
# it indicate separated data rather than a meaningful optimum.
SEPARATION_BOUND = 30.0

# The one multinomial model fitted is SR's three-way sample membership
# (weights.BOTH_SAMPLES, INTERNAL_ONLY, EXTERNAL_ONLY).
MULTINOMIAL_CATEGORIES = 3


def expit(x):
    """Numerically stable inverse logit, branch-free.

    With ``e = exp(-|x|)`` the result is ``maximum(e, x >= 0) / (1 + e)``:
    for x >= 0 the numerator is 1 (e <= 1), giving ``1/(1+exp(-x))``, and
    for x < 0 it is e, giving ``exp(x)/(1+exp(x))``; a NaN keeps e's own
    NaN.  These are the operations of the two-branch form, so every value
    matches it bit for bit.  ``-|x|`` is taken as ``minimum(x, -x)``, which
    keeps a NaN's sign as the two-branch form does.  The shorter
    ``(1 + tanh(x/2))/2`` is not used: it loses relative accuracy for small
    probabilities, the range ``weights.PI_FLOOR`` guards.
    """
    x = np.asarray(x, dtype=float)
    # ``out=`` keeps 0-d inputs as arrays, which the in-place steps need.
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=np.empty_like(x))
    e += 1.0
    out /= e
    return out if out.ndim else float(out)


def logit(p):
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


@dataclass
class DesignMatrix:
    """A validated n-by-p design with named columns.

    When ``has_intercept`` is set, column 0 must be identically one.
    """

    matrix: np.ndarray
    column_names: list
    has_intercept: bool = True

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValidationError("design matrix must be two-dimensional")
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


def build_design(columns, names=None, intercept=True):
    """Stack 1-d arrays into a :class:`DesignMatrix`, prepending an intercept.

    ``columns`` is a sequence of equal-length arrays; ``names`` labels them
    (defaults to x1, x2, ...).
    """
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    if names is None:
        names = [f"x{i + 1}" for i in range(len(cols))]
    names = list(names)
    if cols:
        n = cols[0].size
        if any(c.size != n for c in cols):
            raise ValidationError("design columns have unequal lengths")
    else:
        raise ValidationError("at least one column or an intercept is required")
    if intercept:
        cols = [np.ones(cols[0].size)] + cols
        names = ["intercept"] + names
    return DesignMatrix(np.column_stack(cols), names, has_intercept=intercept)


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
        x = _design_array(design)
        return x @ np.asarray(self.coefficients, dtype=float).ravel()

    def probabilities(self, design):
        """Fitted success probabilities (logistic/simplex mean model)."""
        if self.model_kind == "multinomial":
            return multinomial_probabilities(self.coefficients, design)
        return expit(self.linear_predictor(design))


def _design_array(design):
    if isinstance(design, DesignMatrix):
        return design.matrix
    arr = np.asarray(design, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("design must be a 2-d array or DesignMatrix")
    return arr


def _column_names(design, p):
    if isinstance(design, DesignMatrix):
        return list(design.column_names)
    return [f"x{i}" for i in range(p)]


def _check_converged(report, what):
    if not report.converged:
        raise NonConvergenceError(
            f"{what} did not converge: {report.message} "
            f"(residual {report.final_residual_norm:.3e} after {report.iterations} iterations)"
        )


def memoize_last(fn):
    """Memoize ``fn(theta)`` on its most recent argument.

    A Newton solve evaluates the residual at each trial point and the
    Jacobian at the accepted one, which is the last trial point.  Building
    both from one memoized mean therefore evaluates the probabilities once
    per trial point.  The argument is compared with ``np.array_equal`` and
    stored as a copy, so a caller mutating its array cannot make the memo
    stale; callers must not mutate the returned value.
    """
    last_theta, last_value = None, None

    def memo(theta):
        nonlocal last_theta, last_value
        if last_theta is None or not np.array_equal(theta, last_theta):
            last_value = fn(theta)
            last_theta = np.array(theta, dtype=float, copy=True)
        return last_value

    return memo


def _guarded(residual):
    """Wrap a logistic-family residual with a coefficient-magnitude guard."""

    def guarded(theta):
        if np.max(np.abs(theta)) > SEPARATION_BOUND:
            raise SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND:g}; "
                "data appear separated"
            )
        return residual(theta)

    return guarded


def fit_weighted_logistic(design, outcome, pi=None):
    """Inverse-probability-weighted logistic regression.

    Solves ``(1/n) sum (1/pi_i) (d_i - expit(theta'z_i)) z_i = 0``.  Passing
    ``pi=None`` (or all ones) gives the ordinary unweighted fit.  The
    variance slot of the returned model is left empty; the variance module
    fills it with the appropriate sandwich estimator.
    """
    x = _design_array(design)
    n, p = x.shape
    d = np.asarray(outcome, dtype=float).ravel()
    if d.size != n:
        raise ValidationError("outcome length does not match design rows")
    if n < p:
        raise ValidationError(f"need at least {p} rows, got {n}")
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ValidationError("outcome must be coded 0/1")
    if d.min() == d.max():
        raise DegenerateOutcomeError("outcome is constant; no model is identified")
    if pi is None:
        w = np.ones(n)
    else:
        pi = np.asarray(pi, dtype=float).ravel()
        if pi.size != n:
            raise ValidationError("pi length does not match design rows")
        if np.any(pi <= 0.0) or np.any(pi > 1.0):
            raise ValidationError("selection probabilities must lie in (0, 1]")
        w = 1.0 / pi

    mean = memoize_last(lambda theta: expit(x @ theta))

    def residual(theta):
        r = w * (d - mean(theta))
        return (x.T @ r) / n

    def jacobian(theta):
        mu = mean(theta)
        return -(x.T * (w * mu * (1.0 - mu))) @ x / n

    report = solve_estimating_equation(_guarded(residual), jacobian, np.zeros(p))
    _check_converged(report, "weighted logistic fit")
    return FittedModel(report.solution, report, "logistic", _column_names(design, p))


def multinomial_probabilities(coef, design):
    """Per-unit category probabilities for a baseline-category logit model.

    ``coef`` has one row per non-reference category; the reference category
    (index 0) has implicit zero coefficients.  Rows of the result sum to 1.
    Each row is shifted by its largest linear predictor (at least the
    reference's 0) before exponentiating; row sums add the columns left to
    right.
    """
    x = _design_array(design)
    b = np.asarray(coef, dtype=float)
    if b.ndim != 2:
        raise ValidationError("multinomial coefficients must be a 2-d array")
    lin = x @ b.T
    top = np.zeros(lin.shape[0])
    for column in lin.T:
        np.maximum(top, column, out=top)
    probs = np.empty((lin.shape[0], lin.shape[1] + 1))
    np.negative(top, out=probs[:, 0])
    np.subtract(lin, top[:, None], out=probs[:, 1:])
    np.exp(probs, out=probs)
    total = probs[:, 0].copy()
    for column in probs[:, 1:].T:
        total += column
    probs /= total[:, None]
    return probs


def fit_multinomial(design, category):
    """Baseline-category multinomial logistic regression.

    Category 0 is the reference level.  Every level in
    ``range(MULTINOMIAL_CATEGORIES)`` must be observed at least once.
    """
    x = _design_array(design)
    n, p = x.shape
    c = np.asarray(category)
    if c.size != n:
        raise ValidationError("category length does not match design rows")
    k = MULTINOMIAL_CATEGORIES - 1
    if not np.all(np.isin(c, np.arange(MULTINOMIAL_CATEGORIES))):
        raise ValidationError(f"categories must lie in 0..{k}")
    counts = np.bincount(c.astype(int), minlength=MULTINOMIAL_CATEGORIES)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0).tolist()
        raise EmptyCategoryError(f"no observations in categories {missing}")
    indicators = np.column_stack([(c == j + 1).astype(float) for j in range(k)])

    probabilities = memoize_last(
        lambda beta: multinomial_probabilities(beta.reshape(k, p), x))

    def residual(beta):
        probs = probabilities(beta)
        return ((indicators - probs[:, 1:]).T @ x).ravel() / n

    def jacobian(beta):
        probs = probabilities(beta)
        jac = np.empty((k * p, k * p))
        for a in range(k):
            pa = probs[:, a + 1]
            for b in range(a, k):
                pb = probs[:, b + 1]
                # pa * (0 - pb) and pb * (0 - pa) are equal bit for bit, so
                # one block serves both (a, b) and (b, a).
                wgt = pa * ((1.0 if a == b else 0.0) - pb)
                block = -(x.T * wgt) @ x / n
                jac[a * p : (a + 1) * p, b * p : (b + 1) * p] = block
                jac[b * p : (b + 1) * p, a * p : (a + 1) * p] = block
        return jac

    report = solve_estimating_equation(_guarded(residual), jacobian,
                                       np.zeros(k * p))
    _check_converged(report, "multinomial fit")
    model = FittedModel(report.solution.reshape(k, p), report, "multinomial",
                        _column_names(design, p))
    return model


def simplex_unit_deviance(y, mu):
    """Unit deviance of the simplex distribution for proportions."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return (y - mu) ** 2 / (y * (1.0 - y) * mu**2 * (1.0 - mu) ** 2)


def simplex_log_density(y, mu, sigma2):
    """Log density of the simplex distribution on (0, 1)."""
    y = np.asarray(y, dtype=float)
    return (
        -0.5 * np.log(2.0 * np.pi * sigma2 * (y * (1.0 - y)) ** 3)
        - simplex_unit_deviance(y, mu) / (2.0 * sigma2)
    )


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
    x = _design_array(design)
    n, p = x.shape
    y = np.asarray(response, dtype=float).ravel()
    if y.size != n:
        raise ValidationError("response length does not match design rows")
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        bad = int(np.flatnonzero((y <= 0.0) | (y >= 1.0))[0])
        raise ResponseOnBoundaryError(
            f"response at index {bad} is outside the open interval (0, 1)"
        )
    if n < p:
        raise ValidationError(f"need at least {p} rows, got {n}")
    ylogit = y * (1.0 - y)
    # Both stages share the mean, so the second starts from the first's
    # last evaluation and the profiled dispersion reuses the second's.
    mean = memoize_last(lambda delta: expit(x @ delta))

    def ql_residual(delta):
        return (x.T @ (y - mean(delta))) / n

    def ql_jacobian(delta):
        mu = mean(delta)
        return -(x.T * (mu * (1.0 - mu))) @ x / n

    init_report = solve_estimating_equation(_guarded(ql_residual), ql_jacobian,
                                            np.zeros(p))
    _check_converged(init_report, "quasi-likelihood initialization")

    def residual(delta):
        mu = mean(delta)
        return (x.T @ (_simplex_score_weights(y, mu) / ylogit)) / n

    def jacobian(delta):
        mu = mean(delta)
        wgt = _simplex_score_slopes(y, mu) * mu * (1.0 - mu) / ylogit
        return (x.T * wgt) @ x / n

    report = solve_estimating_equation(_guarded(residual), jacobian,
                                       init_report.solution)
    _check_converged(report, "simplex regression")
    mu_hat = mean(report.solution)
    sigma2 = float(np.mean(simplex_unit_deviance(y, mu_hat)))
    return FittedModel(report.solution, report, "simplex",
                       _column_names(design, p), dispersion=sigma2)
