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
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateCutoffsError,
    DegenerateDenominatorError,
    DuplicateCellError,
    InfeasibleTotalsError,
    NonConvergenceError,
    UnmatchedCellError,
    ValidationError,
)
from .fitters import (
    DesignMatrix,
    binary_outcome,
    category_probabilities,
    coerce_design,
    expit,
    fit_multinomial,
    fit_simplex_regression,
    numeric_array,
    population_size,
    probability_vector,
    row_mask,
    row_vector,
    solve_fit,
    weighted_cross,
)

# Estimated probabilities are clamped into [PI_FLOOR, 1] by clamp_pi, and
# every clamp is counted, never applied silently.
PI_FLOOR = 1e-10

# SR's multinomial categories of sample membership.
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
        self.pi_hat = probability_vector(self.pi_hat, np.size(self.pi_hat),
                                         "pi_hat entries")
        needs_alpha = self.method in ("PL", "CL")
        if needs_alpha != (self.alpha_hat is not None):
            raise ValidationError(
                f"alpha_hat must be present exactly for PL/CL, got method={self.method}"
            )

    @property
    def weights(self):
        """Inverse-probability weights, one per internal unit."""
        return 1.0 / self.pi_hat

    @property
    def clamped(self):
        """How many probabilities the clamp into [PI_FLOOR, 1] moved."""
        d = self.diagnostics
        return d.get("clamped_low", 0) + d.get("clamped_high", 0)


@dataclass(frozen=True)
class PopulationSummary:
    """Target-population summary: joint cells or marginal means plus size.

    Joint cells are the rows of ``levels`` (distinct integer rows) with
    ``probabilities`` summing to one.  ``means`` holds marginal means, one
    per name in ``names``; ``population_size`` is required for marginal
    summaries and optional (but needed by post-stratification scaling) for
    joint ones.
    When given, it must be a positive finite number.  The fields cannot be
    assigned, so every summary has passed these checks; a changed copy comes
    from ``dataclasses.replace``, which checks it again.
    """

    kind: str
    levels: Optional[np.ndarray] = None
    probabilities: Optional[np.ndarray] = None
    means: Optional[np.ndarray] = None
    names: Optional[list] = None
    population_size: Optional[int] = None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.population_size is not None:
            population_size(self.population_size, "population_size")
        if self.kind == "joint_cells":
            object.__setattr__(self, "levels", np.asarray(self.levels))
            object.__setattr__(self, "probabilities", numeric_array(
                self.probabilities, "cell probabilities"))
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
            object.__setattr__(self, "means",
                               numeric_array(self.means, "marginal means"))
            if not np.all(np.isfinite(self.means)):
                raise ValidationError("marginal means must be finite")
            if self.names is None or len(self.names) != self.means.size:
                raise ValidationError("marginal means need one name each")
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


def coarsen(values, cutoffs=None):
    """Bin a continuous variable into ordered integer labels.

    ``values`` must not be NaN.  ``cutoffs`` must be finite and strictly
    increasing; None places them at the type-7 ``COARSEN_QUANTILES`` of
    ``values``, which must then be non-empty.  Label k covers the half-open
    interval [cutoff_k, cutoff_{k+1}).
    """
    values = numeric_array(values, "values to coarsen")
    if np.isnan(values).any():
        raise ValidationError("values to coarsen must not be NaN")
    if cutoffs is None:
        if values.size == 0:
            raise ValidationError("quantile cutoffs need at least one value")
        cutoffs = np.quantile(values, COARSEN_QUANTILES)
    cutoffs = numeric_array(cutoffs, "cutoffs").ravel()
    if (cutoffs.size == 0 or not np.isfinite(cutoffs).all()
            or np.any(cutoffs[1:] <= cutoffs[:-1])):
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
    w = numeric_array(w, "weights to winsorize")
    if w.ndim != 1:
        raise ValidationError("weights to winsorize must be one-dimensional, "
                              f"got shape {w.shape}")
    if w.size == 0:
        raise ValidationError("weights to winsorize must not be empty")
    if not np.all((w > 0.0) & (w < np.inf)):  # NaN fails too
        raise ValidationError("weights must be positive and finite")
    if not all(isinstance(q, numbers.Real) and not isinstance(q, bool)
               for q in (lower_q, upper_q)):
        raise ValidationError("quantile levels must be real numbers")
    if not (0.0 <= lower_q < upper_q <= 1.0):
        raise ValidationError("need 0 <= lower_q < upper_q <= 1")
    n = w.size
    i_lo = int(np.ceil((n - 1) * lower_q))
    i_hi = int(np.floor((n - 1) * upper_q))
    i_lo = min(i_lo, i_hi)
    # Two order statistics, not a sort: the weights are never NaN.
    ws = np.partition(w, (i_lo, i_hi))
    return np.clip(w, ws[i_lo], ws[i_hi])


def augment_weights_with_outcome(w0, outcome, p_pop, p_int):
    """Fold the outcome into selection weights built without it.

    Multiplies each weight by the ratio of the population outcome
    probability to the sample-conditional one, evaluated at the unit's
    realized outcome.
    """
    w0 = numeric_array(w0, "weights").ravel()
    n = w0.size
    d = binary_outcome(outcome, n)
    p_pop = row_vector(p_pop, n, "p_pop")
    p_int = row_vector(p_int, n, "p_int")
    if not np.all((w0 > 0.0) & (w0 < np.inf)):  # NaN fails too
        raise ValidationError("weights must be positive and finite")
    for name, p in (("p_pop", p_pop), ("p_int", p_int)):
        if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails too
            raise ValidationError(f"{name} must lie strictly inside (0, 1)")
    ratio = np.where(d == 1.0, p_pop / p_int, (1.0 - p_pop) / (1.0 - p_int))
    return w0 * ratio


def _sample_design(design, sample, names=None):
    """``design`` coerced (see ``fitters.coerce_design``); the ``sample``
    it holds needs at least one row."""
    design = coerce_design(design, names)
    if design.n == 0:
        raise ValidationError(f"the {sample} sample has no rows")
    return design


def _design_pair(internal_X, external_X):
    internal_X = _sample_design(internal_X, "internal")
    external_X = _sample_design(external_X, "external",
                                internal_X.column_names)
    if internal_X.p != external_X.p:
        raise ValidationError("internal and external designs have different widths")
    if internal_X.column_names != external_X.column_names:
        raise ValidationError("internal and external designs name different columns")
    return internal_X, external_X


def clamp_pi(pi):
    """Estimated selection probabilities ``pi`` clipped into [PI_FLOOR, 1]."""
    return np.clip(pi, PI_FLOOR, 1.0)


def estimated_weight_set(pi, method, alpha_hat=None, **diagnostics):
    """The WeightSet of estimated probabilities ``pi`` after :func:`clamp_pi`:
    the estimator's ``diagnostics``, then the counts of entries below
    PI_FLOOR (``clamped_low``) and above 1 (``clamped_high``)."""
    diagnostics.update(clamped_low=int(np.count_nonzero(pi < PI_FLOOR)),
                       clamped_high=int(np.count_nonzero(pi > 1.0)))
    return WeightSet(clamp_pi(pi), method, alpha_hat, diagnostics)


def logistic_selection_pi(x, alpha):
    """Unchecked logistic selection probabilities ``expit(x @ alpha)``,
    clamped by :func:`clamp_pi`: the CL solve's and the sandwiches' pi."""
    return clamp_pi(expit(x @ alpha))


def estimate_weights_pl(internal_X, external_X, pi_ext):
    """Pseudolikelihood selection-model fit from an external probability sample.

    Solves, for a logistic selection model pi(x, alpha),

        sum_internal x_i - sum_external (1 / pi_ext_i) pi(x_i, alpha) x_i = 0,

    normalized by the design-weighted external population size so the
    reported residual norm is scale-free.  ``pi_ext`` holds one design
    probability in (0, 1] per external row.  A solve that stops unconverged
    raises the :class:`NonConvergenceError` of ``fitters.solve_fit``.
    """
    internal_X, external_X = _design_pair(internal_X, external_X)
    xi = internal_X.matrix
    xe = external_X.matrix
    pi_ext = probability_vector(pi_ext, xe.shape[0],
                                "external design probabilities")
    ext_w = 1.0 / pi_ext
    n_hat = float(np.sum(ext_w))
    internal_total = xi.sum(axis=0)

    def score(alpha):
        p = expit(xe @ alpha)
        return ((internal_total - xe.T @ (ext_w * p)) / n_hat,
                lambda: weighted_cross(xe, -(ext_w * p * (1.0 - p)), xe) / n_hat)

    report = solve_fit("pseudolikelihood selection fit", score,
                       np.zeros(xi.shape[1]))
    return estimated_weight_set(expit(xi @ report.solution), "PL",
                                report.solution, iterations=report.iterations,
                                residual_norm=report.final_residual_norm)


def estimate_weights_sr(internal_X, external_X, pi_ext, internal_in_external,
                        external_in_internal):
    """Simplex-regression composite estimator of internal selection probabilities.

    The external design probabilities are modeled with a simplex-distribution
    regression on the external rows, the three-way sample membership with a
    multinomial regression on the combined sample, and the two are composed
    into P(internal selection | x) via the membership-probability ratio.

    ``internal_in_external`` flags the internal rows whose units are also in
    the external sample, and ``external_in_internal`` the external rows
    whose units are also in the internal sample; both masks flag the same
    number of units.  The multinomial sample is the internal rows, in
    ``BOTH_SAMPLES`` or ``INTERNAL_ONLY``, then the unflagged external rows,
    in ``EXTERNAL_ONLY``, so each unit enters once.  ``pi_ext`` holds one
    design probability in (0, 1] per external row.
    """
    internal_X, external_X = _design_pair(internal_X, external_X)
    xi = internal_X.matrix
    xe = external_X.matrix
    n_int, n_ext = xi.shape[0], xe.shape[0]
    pi_ext = probability_vector(pi_ext, n_ext, "external design probabilities")
    in_ext = row_mask(internal_in_external, n_int, "internal_in_external")
    in_int = row_mask(external_in_internal, n_ext, "external_in_internal")
    if np.count_nonzero(in_ext) != np.count_nonzero(in_int):
        raise ValidationError("the overlap masks flag different numbers of units")

    simplex = fit_simplex_regression(external_X, pi_ext)

    ext_only = np.flatnonzero(~in_int)
    # np.vstack([xi, xe[ext_only]]), with the external rows taken whole
    # straight into place.
    combined = np.empty((n_int + ext_only.size, xi.shape[1]))
    combined[:n_int] = xi
    np.take(xe, ext_only, axis=0, out=combined[n_int:])
    labels = np.concatenate([np.where(in_ext, BOTH_SAMPLES, INTERNAL_ONLY),
                             np.full(ext_only.size, EXTERNAL_ONLY)])
    multinomial = fit_multinomial(
        DesignMatrix(combined, list(internal_X.column_names),
                     internal_X.has_intercept),
        labels)

    probs = category_probabilities(xi, multinomial.coefficients)
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
    return estimated_weight_set(
        pi_raw, "SR",
        simplex_coefficients=simplex.coefficients,
        simplex_dispersion=simplex.dispersion,
        multinomial_coefficients=multinomial.coefficients,
        iterations=simplex.report.iterations + multinomial.report.iterations)


def estimate_weights_ps(internal_cells, summary):
    """Post-stratification weights from joint cell probabilities.

    ``internal_cells`` is a 2-d integer array holding one discretized
    selection-variable tuple per internal unit.  Raw weight ratios
    P(cell) / P_hat(cell | selected) are rescaled so the weights sum to the
    summary's population size, and probabilities are their inverses.
    """
    if summary.kind != "joint_cells":
        raise ValidationError("post-stratification requires a joint_cells summary")
    n_pop = summary.population_size
    if n_pop is None:
        raise ValidationError(
            "population size is required to scale post-stratification weights"
        )
    cells = np.asarray(internal_cells)
    if cells.ndim != 2 or not np.issubdtype(cells.dtype, np.integer):
        raise ValidationError("internal cells must be a 2-d integer array")
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
    return estimated_weight_set(1.0 / w, "PS",
                                n_cells=int(np.count_nonzero(counts)))


def estimate_weights_cl(internal_X, summary):
    """Calibration weights matching weighted internal totals to the population.

    Solves ``sum_internal x_i / pi(x_i, alpha) = population totals`` for a
    logistic selection model.  The summary must supply the population size
    (the intercept total) and a mean for every non-intercept column of the
    selection design, matched by name.  A solve that stops unconverged
    raises :class:`InfeasibleTotalsError` when its scaled residual exceeds
    ``INFEASIBLE_RESIDUAL_FRACTION``, and the :class:`NonConvergenceError`
    of ``fitters.solve_fit`` otherwise; either carries the solve's report.
    """
    if summary.kind != "marginal_means":
        raise ValidationError("calibration requires a marginal_means summary")
    internal_X = _sample_design(internal_X, "internal")
    x = internal_X.matrix
    n, p = x.shape
    n_pop = float(summary.population_size)
    if n_pop < n:
        raise ValidationError("population size is smaller than the internal sample")

    offset = 1 if internal_X.has_intercept else 0
    covariates = list(internal_X.column_names)[offset:]
    name_to_mean = dict(zip(summary.names, summary.means))
    missing = [c for c in covariates if c not in name_to_mean]
    if missing:
        raise ValidationError(f"summary lacks means for columns {missing}")
    means = np.array([name_to_mean[c] for c in covariates])
    totals = np.concatenate([[n_pop] if offset else [], n_pop * means])

    def score(alpha):
        pi = logistic_selection_pi(x, alpha)
        return ((x.T @ (1.0 / pi) - totals) / n_pop,
                lambda: weighted_cross(x, -((1.0 - pi) / pi), x) / n_pop)

    try:
        report = solve_fit("calibration fit", score, np.zeros(p))
    except NonConvergenceError as exc:
        residual = exc.report.final_residual_norm
        if residual > INFEASIBLE_RESIDUAL_FRACTION:
            raise InfeasibleTotalsError(
                "no logistic weighting matches the population totals "
                f"(scaled residual {residual:.3e})", exc.report
            ) from exc
        raise
    return estimated_weight_set(expit(x @ report.solution), "CL",
                                report.solution, iterations=report.iterations,
                                residual_norm=report.final_residual_norm)
