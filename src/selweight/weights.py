"""Selection-probability estimators and weight post-processing.

Four estimators are provided.  Two use individual-level external data:
the pseudolikelihood estimating equation (PL) and the simplex-regression
composite (SR).  Two use summary-level data: post-stratification over joint
cell probabilities (PS) and calibration to marginal totals (CL).  All four
return per-unit selection probabilities for the internal sample plus
diagnostics.  Winsorization, outcome augmentation, and quantile coarsening
support the weight-stabilization workflow.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateCutoffsError,
    DegenerateDenominatorError,
    DuplicateCellError,
    InfeasibleTotalsError,
    NonConvergenceError,
    NonIntegerCellError,
    RankDeficientDesignError,
    SingularJacobianError,
    UnmatchedCellError,
    ValidationError,
)
from .fitters import (
    DesignMatrix,
    expit,
    fit_multinomial,
    fit_simplex_regression,
    memoize_last,
    multinomial_probabilities,
)
from .solver import solve_estimating_equation

# Estimated probabilities are clamped into [PI_FLOOR, 1]; every clamp is
# counted in the WeightSet diagnostics, never applied silently.
PI_FLOOR = 1e-10

# Overlap labels for the combined internal/external sample.
BOTH_SAMPLES = 0
INTERNAL_ONLY = 1
EXTERNAL_ONLY = 2

# Calibration residuals above this fraction of the population size after a
# full iteration budget indicate infeasible totals rather than slow progress.
INFEASIBLE_RESIDUAL_FRACTION = 1e-4


@dataclass
class WeightSet:
    """Estimated selection probabilities for the internal-sample units."""

    pi_hat: np.ndarray
    method: str
    alpha_hat: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pi_hat = np.asarray(self.pi_hat, dtype=float)
        if np.any(self.pi_hat <= 0.0) or np.any(self.pi_hat > 1.0):
            raise ValidationError("pi_hat entries must lie in (0, 1]")
        needs_alpha = self.method in ("PL", "CL")
        if needs_alpha != (self.alpha_hat is not None):
            raise ValidationError(
                f"alpha_hat must be present exactly for PL/CL, got method={self.method}"
            )

    @property
    def weights(self):
        """Inverse-probability weights, one per internal unit."""
        return 1.0 / self.pi_hat


@dataclass
class PopulationSummary:
    """Target-population summary: joint cells or marginal means plus size.

    Joint cells are the rows of ``levels`` (distinct integer rows) with
    ``probabilities`` summing to one.  ``means`` holds marginal means aligned
    with ``names``; ``population_size`` is required for marginal summaries
    and optional (but needed by post-stratification scaling) for joint ones.
    """

    kind: str
    levels: Optional[np.ndarray] = None
    probabilities: Optional[np.ndarray] = None
    means: Optional[np.ndarray] = None
    names: Optional[list] = None
    population_size: Optional[int] = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind == "joint_cells":
            self.levels = np.asarray(self.levels)
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            k = self.probabilities.size
            if (self.levels.ndim != 2 or self.levels.shape[1] == 0 or k == 0
                    or self.probabilities.shape != (k,) or len(self.levels) != k):
                raise ValidationError("joint_cells summary needs a k x m levels "
                                      "matrix and k probabilities, k, m >= 1")
            if not np.issubdtype(self.levels.dtype, np.integer):
                raise ValidationError("cell levels must be integers")
            if np.any(self.probabilities < 0.0):
                raise ValidationError("cell probabilities must be nonnegative")
            total = float(self.probabilities.sum())
            if not abs(total - 1.0) <= 1e-9:
                raise ValidationError(
                    f"joint cell probabilities sum to {total!r}, expected 1"
                )
            first = first_occurrence(cell_codes(self.levels))
            if first.size < k:
                j = int(np.setdiff1d(np.arange(k), first)[0])
                raise DuplicateCellError(
                    f"duplicate cell {tuple(self.levels[j].tolist())} in row {j + 1}"
                )
        elif self.kind == "marginal_means":
            if self.means is None or self.population_size is None:
                raise ValidationError(
                    "marginal_means summary requires means and population_size"
                )
            self.means = np.asarray(self.means, dtype=float)
            if not np.all(np.isfinite(self.means)):
                raise ValidationError("marginal means must be finite")
            if self.names is not None:
                if len(self.names) != self.means.size:
                    raise ValidationError("names length does not match means")
                repeated = [n for i, n in enumerate(self.names)
                            if n in self.names[:i]]
                if repeated:
                    raise ValidationError(f"name {repeated[0]!r} is repeated")
        else:
            raise ValidationError(f"unknown summary kind {self.kind!r}")


def cell_codes(rows):
    """Dense codes 0..k-1 of the k distinct rows of an integer matrix.

    Codes follow the lexicographic row order of ``np.unique(rows, axis=0)``.
    When the product of the column ranges is at most ``4 n + 2**16`` (an
    occupancy array no larger than a few times the input), each row's
    mixed-radix offset (first column most significant) indexes one
    occupancy array whose cumulative sum ranks the codes, in O(n) without a
    sort.  Otherwise each column's ranks are folded in and the codes
    re-ranked, so no level value can overflow.
    """
    rows = np.asarray(rows)
    n = rows.shape[0]
    if n and np.issubdtype(rows.dtype, np.integer):
        # Column by column: a reduction along axis 0 of a C-ordered matrix
        # strides across its rows and takes over ten times as long.
        lows = [column.min() for column in rows.T]
        highs = [column.max() for column in rows.T]
        spans = [int(hi) - int(lo) + 1 for lo, hi in zip(lows, highs)]
        total = math.prod(spans)
        if total <= 4 * n + 2**16:
            codes = np.zeros(n, dtype=np.intp)
            for column, low, span in zip(rows.T, lows, spans):
                codes *= span
                # Subtracting in intp keeps a narrow dtype from wrapping;
                # the offset is below span, so a uint64 level that wraps
                # in the cast still gives the exact offset.
                codes += np.subtract(column, low, dtype=np.intp)
            seen = np.zeros(total, dtype=np.intp)
            seen[codes] = 1
            rank = np.cumsum(seen)
            rank -= 1
            return rank[codes]
    codes = np.zeros(n, dtype=np.intp)
    for column in rows.T:
        values, rank = np.unique(column, return_inverse=True)
        codes = np.unique(codes * values.size + rank, return_inverse=True)[1]
    return codes


def first_occurrence(codes):
    """Index of the first entry holding each of the dense codes 0..k-1.

    Equals ``np.unique(codes, return_index=True)[1]``, found without a sort.
    """
    codes = np.asarray(codes)
    first = np.full(codes.max(initial=-1) + 1, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    return first


# coarsen's default cutoffs: three bins split at the 15th and 85th percentiles.
COARSEN_QUANTILES = (0.15, 0.85)


# Integer cells are stored as int64, which holds magnitudes below 2**63.
INT64_LIMIT = 2.0**63


def non_integer(values):
    """Mask of the doubles that are NaN, infinite, fractional or outside
    the int64 range."""
    return ~(np.abs(values) < INT64_LIMIT) | (values != np.floor(values))


def coarsen(values, cutoffs=None):
    """Bin a continuous variable into ordered integer labels.

    ``values`` must not be NaN.  ``cutoffs`` must be finite and strictly
    increasing; None places them at the type-7 ``COARSEN_QUANTILES`` of
    ``values``.  Label k covers the half-open interval [cutoff_k,
    cutoff_{k+1}).
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValidationError("values to coarsen must not be NaN")
    if cutoffs is None:
        cutoffs = np.quantile(values, COARSEN_QUANTILES)
    cutoffs = np.asarray(cutoffs, dtype=float).ravel()
    if (cutoffs.size == 0 or not np.isfinite(cutoffs).all()
            or np.any(np.diff(cutoffs) <= 0.0)):
        raise DegenerateCutoffsError(
            f"cutoffs {cutoffs.tolist()} are not finite and strictly increasing")
    # A value's label is the number of cutoffs at or below it, counted one
    # cutoff at a time: for a handful of cutoffs this is ten times faster
    # than searchsorted, with the same labels.
    labels = np.zeros(values.shape, dtype=int)
    for cutoff in cutoffs.tolist():
        labels += values >= cutoff
    return labels


def winsorize_weights(w, lower_q=0.025, upper_q=0.975):
    """Clip weights to an order-statistic band at the given quantile levels.

    The lower bound is the order statistic at position ceil(1 + (n-1) q_lo)
    and the upper bound the one at floor(1 + (n-1) q_hi), so applying the
    operation twice returns the same vector (the band endpoints are fixed
    points of the clipping).
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0):
        raise ValidationError("weights must be positive")
    if not (0.0 <= lower_q < upper_q <= 1.0):
        raise ValidationError("need 0 <= lower_q < upper_q <= 1")
    ws = np.sort(w)
    n = w.size
    i_lo = int(np.ceil((n - 1) * lower_q))
    i_hi = int(np.floor((n - 1) * upper_q))
    i_lo = min(i_lo, i_hi)
    return np.clip(w, ws[i_lo], ws[i_hi])


def augment_weights_with_outcome(w0, outcome, p_pop, p_int):
    """Fold the outcome into selection weights built without it.

    Multiplies each weight by the ratio of the population outcome
    probability to the sample-conditional one, evaluated at the unit's
    realized outcome.
    """
    w0 = np.asarray(w0, dtype=float)
    d = np.asarray(outcome, dtype=float)
    p_pop = np.asarray(p_pop, dtype=float)
    p_int = np.asarray(p_int, dtype=float)
    if not (w0.shape == d.shape == p_pop.shape == p_int.shape):
        raise ValidationError("augmentation inputs must share one shape")
    if np.any(w0 <= 0.0):
        raise ValidationError("weights must be positive")
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ValidationError("outcome must be coded 0/1")
    for name, p in (("p_pop", p_pop), ("p_int", p_int)):
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValidationError(f"{name} must lie strictly inside (0, 1)")
    ratio = np.where(d == 1.0, p_pop / p_int, (1.0 - p_pop) / (1.0 - p_int))
    return w0 * ratio


def _as_design(x, names=None):
    """Wrap a bare array as a DesignMatrix without an asserted intercept."""
    if isinstance(x, DesignMatrix):
        return x
    x = np.asarray(x, dtype=float)
    if names is None:
        names = [f"x{i}" for i in range(x.shape[1])]
    return DesignMatrix(x, list(names), has_intercept=False)


def _design_pair(internal_X, external_X):
    internal_X = _as_design(internal_X)
    external_X = _as_design(external_X, internal_X.column_names)
    if internal_X.p != external_X.p:
        raise ValidationError("internal and external designs have different widths")
    if internal_X.column_names != external_X.column_names:
        raise ValidationError("internal and external designs name different columns")
    return internal_X, external_X


def logistic_selection_pi(x, alpha):
    """Logistic selection probabilities ``expit(x @ alpha)`` clamped into
    [PI_FLOOR, 1]: the CL solve's and the PL/CL sandwiches' pi."""
    return np.clip(expit(x @ np.asarray(alpha, dtype=float)), PI_FLOOR, 1.0)


def _clamp_pi(pi):
    clamped = np.clip(pi, PI_FLOOR, 1.0)
    n_low = int(np.sum(pi < PI_FLOOR))
    n_high = int(np.sum(pi > 1.0))
    return clamped, n_low, n_high


def _check_pi_ext(pi_ext, n):
    pi_ext = np.asarray(pi_ext, dtype=float).ravel()
    if pi_ext.size != n:
        raise ValidationError("pi_ext length does not match external rows")
    if np.any(pi_ext <= 0.0) or np.any(pi_ext > 1.0):
        raise ValidationError("external design probabilities must lie in (0, 1]")
    return pi_ext


def _solve_selection_model(residual, jacobian, p):
    """Newton-solve a logistic selection model's equation from alpha = 0."""
    try:
        return solve_estimating_equation(residual, jacobian, np.zeros(p))
    except SingularJacobianError as exc:
        raise RankDeficientDesignError(
            f"selection design is rank deficient: {exc}"
        ) from exc


def _logistic_weight_set(method, x, report):
    """Clamped probabilities of a solved logistic selection model at rows ``x``."""
    pi_hat, n_low, n_high = _clamp_pi(expit(x @ report.solution))
    return WeightSet(
        pi_hat, method, alpha_hat=report.solution,
        diagnostics={
            "iterations": report.iterations,
            "residual_norm": report.final_residual_norm,
            "clamped_low": n_low,
            "clamped_high": n_high,
        },
    )


def estimate_weights_pl(internal_X, external_X, pi_ext):
    """Pseudolikelihood selection-model fit from an external probability sample.

    Solves, for a logistic selection model pi(x, alpha),

        sum_internal x_i - sum_external (1 / pi_ext_i) pi(x_i, alpha) x_i = 0,

    normalized by the design-weighted external population size so the
    reported residual norm is scale-free.
    """
    internal_X, external_X = _design_pair(internal_X, external_X)
    xi = internal_X.matrix
    xe = external_X.matrix
    pi_ext = _check_pi_ext(pi_ext, xe.shape[0])
    ext_w = 1.0 / pi_ext
    n_hat = float(np.sum(ext_w))
    internal_total = xi.sum(axis=0)
    pi_at_ext = memoize_last(lambda alpha: expit(xe @ alpha))

    def residual(alpha):
        return (internal_total - xe.T @ (ext_w * pi_at_ext(alpha))) / n_hat

    def jacobian(alpha):
        p = pi_at_ext(alpha)
        return -(xe.T * (ext_w * p * (1.0 - p))) @ xe / n_hat

    report = _solve_selection_model(residual, jacobian, xi.shape[1])
    if not report.converged:
        raise NonConvergenceError(
            f"pseudolikelihood selection fit did not converge: {report.message}"
        )
    return _logistic_weight_set("PL", xi, report)


def overlap_labels(internal_in_external, external_in_internal):
    """Build combined-sample membership labels from two overlap masks.

    ``internal_in_external`` flags internal units that also belong to the
    external sample; ``external_in_internal`` flags external units that also
    belong to the internal sample.  The result aligns with the rows of the
    stacked (internal, external) design.
    """
    a = np.asarray(internal_in_external, dtype=bool)
    b = np.asarray(external_in_internal, dtype=bool)
    return np.concatenate([
        np.where(a, BOTH_SAMPLES, INTERNAL_ONLY),
        np.where(b, BOTH_SAMPLES, EXTERNAL_ONLY),
    ])


def estimate_weights_sr(internal_X, external_X, pi_ext, overlap):
    """Simplex-regression composite estimator of internal selection probabilities.

    The external design probabilities are modeled with a simplex-distribution
    regression on the external rows, the three-way sample membership with a
    multinomial regression on the combined sample, and the two are composed
    into P(internal selection | x) via the membership-probability ratio.

    ``overlap`` labels each row of the stacked (internal, external) design
    as ``BOTH_SAMPLES``, ``INTERNAL_ONLY``, or ``EXTERNAL_ONLY``.  External
    rows labeled ``BOTH_SAMPLES`` duplicate an internal row and are dropped
    from the multinomial sample so each unit enters once.
    """
    internal_X, external_X = _design_pair(internal_X, external_X)
    xi = internal_X.matrix
    xe = external_X.matrix
    n_int, n_ext = xi.shape[0], xe.shape[0]
    pi_ext = _check_pi_ext(pi_ext, n_ext)
    overlap = np.asarray(overlap)
    if overlap.size != n_int + n_ext:
        raise ValidationError("overlap labels must cover internal plus external rows")
    lab_int, lab_ext = overlap[:n_int], overlap[n_int:]
    if not np.all(np.isin(lab_int, (BOTH_SAMPLES, INTERNAL_ONLY))):
        raise ValidationError("internal rows must be labeled BOTH or INTERNAL_ONLY")
    if not np.all(np.isin(lab_ext, (BOTH_SAMPLES, EXTERNAL_ONLY))):
        raise ValidationError("external rows must be labeled BOTH or EXTERNAL_ONLY")
    if np.sum(lab_int == BOTH_SAMPLES) != np.sum(lab_ext == BOTH_SAMPLES):
        raise ValidationError("mismatched BOTH_SAMPLES counts between blocks")

    simplex = fit_simplex_regression(external_X, pi_ext)

    ext_only = np.flatnonzero(lab_ext == EXTERNAL_ONLY)
    combined = np.vstack([xi, xe[ext_only]])
    labels = np.concatenate([lab_int, np.full(ext_only.size, EXTERNAL_ONLY)])
    multinomial = fit_multinomial(
        DesignMatrix(combined, list(internal_X.column_names),
                     internal_X.has_intercept),
        labels)

    probs = multinomial_probabilities(multinomial.coefficients, xi)
    p_both = probs[:, BOTH_SAMPLES]
    p_int_only = probs[:, INTERNAL_ONLY]
    p_ext_only = probs[:, EXTERNAL_ONLY]
    denom = p_both + p_ext_only
    bad = np.flatnonzero(denom < 1e-12)
    if bad.size:
        raise DegenerateDenominatorError(
            f"membership-probability denominator vanished for units {bad[:5].tolist()}",
            unit_indices=bad,
        )
    pi_raw = expit(xi @ simplex.coefficients) * (p_both + p_int_only) / denom
    pi_hat, n_low, n_high = _clamp_pi(pi_raw)
    return WeightSet(
        pi_hat, "SR",
        diagnostics={
            "simplex_coefficients": simplex.coefficients,
            "simplex_dispersion": simplex.dispersion,
            "multinomial_coefficients": multinomial.coefficients,
            "iterations": simplex.report.iterations + multinomial.report.iterations,
            "clamped_low": n_low,
            "clamped_high": n_high,
        },
    )


def estimate_weights_ps(internal_cells, summary):
    """Post-stratification weights from joint cell probabilities.

    ``internal_cells`` holds one discretized selection-variable tuple per
    internal unit (2-d integer array or sequence of tuples); values of a
    non-integer dtype must be integral and inside the int64 range.  Raw
    weight ratios P(cell) / P_hat(cell | selected) are rescaled so the
    weights sum to the summary's population size, and probabilities are
    their inverses.
    """
    if summary.kind != "joint_cells":
        raise ValidationError("post-stratification requires a joint_cells summary")
    n_pop = summary.population_size
    if n_pop is None:
        raise ValidationError(
            "population size is required to scale post-stratification weights"
        )
    cells = np.asarray(internal_cells)
    if cells.ndim == 1:
        cells = cells[:, None]
    if not np.issubdtype(cells.dtype, np.integer):
        bad = np.argwhere(non_integer(cells.astype(float)))
        if bad.size:
            i, j = bad[0]
            raise NonIntegerCellError(
                f"internal unit {i} has cell value {float(cells[i, j])!r}, "
                "not an integer"
            )
    cells = cells.astype(np.int64, copy=False)
    n = cells.shape[0]
    if n == 0:
        raise ValidationError("post-stratification needs at least one internal unit")
    if n_pop < n:
        raise ValidationError("population size is smaller than the internal sample")
    k = summary.probabilities.size
    if cells.shape[1] != summary.levels.shape[1]:
        raise ValidationError("internal cells and summary cells differ in width")

    codes = cell_codes(np.vstack([summary.levels, cells]))
    unit_codes = codes[k:]
    # Table rows have distinct codes, so each bin holds one probability as is.
    pop_prob = np.bincount(codes[:k], summary.probabilities, codes.max() + 1)[unit_codes]
    unmatched = np.flatnonzero(pop_prob <= 0.0)
    if unmatched.size:
        i = int(unmatched[0])
        raise UnmatchedCellError(
            f"internal unit {i} falls in cell {tuple(cells[i].tolist())} with "
            "no positive population probability"
        )
    counts = np.bincount(unit_codes)

    ratio = pop_prob / (counts[unit_codes] / n)
    w = ratio * (n_pop / ratio.sum())
    pi_hat, n_low, n_high = _clamp_pi(1.0 / w)
    return WeightSet(
        pi_hat, "PS",
        diagnostics={
            "n_cells": int(np.count_nonzero(counts)),
            "clamped_low": n_low,
            "clamped_high": n_high,
        },
    )


def estimate_weights_cl(internal_X, summary):
    """Calibration weights matching weighted internal totals to the population.

    Solves ``sum_internal x_i / pi(x_i, alpha) = population totals`` for a
    logistic selection model.  The summary must supply the population size
    (the intercept total) and marginal means for every non-intercept column
    of the selection design, matched by name when the summary names its
    means and by position otherwise.
    """
    if summary.kind != "marginal_means":
        raise ValidationError("calibration requires a marginal_means summary")
    internal_X = _as_design(internal_X)
    x = internal_X.matrix
    n, p = x.shape
    n_pop = float(summary.population_size)
    if n_pop < n:
        raise ValidationError("population size is smaller than the internal sample")

    offset = 1 if internal_X.has_intercept else 0
    covariates = list(internal_X.column_names)[offset:]
    means = summary.means
    if summary.names is not None:
        name_to_mean = dict(zip(summary.names, summary.means))
        missing = [c for c in covariates if c not in name_to_mean]
        if missing:
            raise ValidationError(f"summary lacks means for columns {missing}")
        means = np.array([name_to_mean[c] for c in covariates])
    elif len(means) != len(covariates):
        raise ValidationError(
            f"summary supplies {len(means)} means for {len(covariates)} covariates"
        )
    totals = np.concatenate([[n_pop] if offset else [], n_pop * means])

    pi_at = memoize_last(lambda alpha: logistic_selection_pi(x, alpha))

    def residual(alpha):
        return (x.T @ (1.0 / pi_at(alpha)) - totals) / n_pop

    def jacobian(alpha):
        pi = pi_at(alpha)
        return -(x.T * ((1.0 - pi) / pi)) @ x / n_pop

    report = _solve_selection_model(residual, jacobian, p)
    if not report.converged:
        if report.final_residual_norm > INFEASIBLE_RESIDUAL_FRACTION:
            raise InfeasibleTotalsError(
                "no logistic weighting matches the population totals "
                f"(scaled residual {report.final_residual_norm:.3e})"
            )
        raise NonConvergenceError(
            f"calibration fit did not converge: {report.message}"
        )
    return _logistic_weight_set("CL", x, report)
