"""Sandwich variance estimators for the weighted logistic estimator.

Three forms are provided.  ``vcov_known_weights`` treats the selection
probabilities as fixed (used for the plug-in SR weights, post-stratification
weights, true weights, and the unweighted fit).  ``vcov_pl`` and ``vcov_cl``
add the correction terms that propagate the uncertainty of the estimated
selection-model coefficients through their respective estimating equations.

All three are one stacked (theta, alpha) estimating equation (Stefanski &
Boos 2002), whose blocks one function forms: the theta score's bread and
meat and, for the two-step forms, g_alpha, all at the selection
probabilities.  PL and CL supply only their selection score's blocks, and
:meth:`SandwichComponents.vcov` is the one assembly.  Each input is checked
once, where a sandwich is entered, so a bad input raises a ValidationError:
designs by ``fitters.coerce_design``; per-row vectors (the outcome, PL's
mask and every probability vector) by ``fitters.row_vector``, through
``binary_outcome``, ``row_mask`` and ``probability_vector`` where 0/1, a
bool or 0/1 flag, or (0, 1] applies;
the width and finiteness of theta_hat, and of alpha_hat against each of its
designs, by ``fitters.coefficients_for``; and ``n_population`` as a
positive finite number.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularBreadError, SingularHError, ValidationError
from .fitters import (
    binary_outcome,
    coefficients_for,
    coerce_design,
    expit,
    numeric_array,
    population_size,
    probability_vector,
    row_mask,
    row_vector,
    weighted_cross,
)
from .solver import SingularJacobianError, invert_matrix
from .weights import logistic_selection_pi

# Wald intervals, the CLI's and those a study's coverage counts, are
# two-sided at this level.
CI_LEVEL = 0.95


@dataclass
class SandwichComponents:
    """Bread, meat, and nuisance blocks of one sandwich assembly.

    One function fills them for all three forms, and :meth:`vcov` assembles
    them.  ``g_theta`` (bread) and ``h_hat`` follow the negative-definite
    sign convention of the underlying score derivatives; the assembled
    variance is invariant to that sign.  ``g_alpha`` is the theta score's
    derivative in alpha and ``e1``, ``e2`` and ``e4`` are the meat pieces
    of the two-step estimators (``e_hat = e1 - e2 - e2' + e4``); for the
    known-weights form only ``e1`` is present and equals ``e_hat``.  Every
    block is a mean over the population size ``n_population``.
    """

    g_theta: np.ndarray
    e_hat: np.ndarray
    n_population: float
    g_alpha: Optional[np.ndarray] = None
    h_hat: Optional[np.ndarray] = None
    e1: Optional[np.ndarray] = None
    e2: Optional[np.ndarray] = None
    e4: Optional[np.ndarray] = None

    def vcov(self):
        """The symmetrised sandwich ``G^-1 e_hat G^-T / N`` of these blocks,
        with ``G`` the bread of positive sign and ``N`` their
        ``n_population``."""
        g_inv = _invert(-self.g_theta, SingularBreadError, "bread matrix")
        v = g_inv @ self.e_hat @ g_inv.T / self.n_population
        return 0.5 * (v + v.T)


def normal_quantile(p, *, out=None):
    """Standard normal inverse CDF via a rational approximation.

    Accurate to well below 1e-9 over the open unit interval; accepts scalars
    or arrays.  Given ``out``, an array of ``p``'s shape that may be ``p``
    itself, the quantiles are written there and ``out`` is returned.
    """
    p = numeric_array(p, "probabilities")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise ValidationError("normal_quantile requires probabilities in (0, 1)")
    res = np.empty_like(p) if out is None else np.atleast_1d(out)

    a = [3.3871328727963666080e0, 1.3314166789178437745e2,
         1.9715909503065514427e3, 1.3731693765509461125e4,
         4.5921953931549871457e4, 6.7265770927008700853e4,
         3.3430575583588128105e4, 2.5090809287301226727e3]
    b = [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
         5.3941960214247511077e3, 2.1213794301586595867e4,
         3.9307895800092710610e4, 2.8729085735721942674e4,
         5.2264952788528545610e3]
    c = [1.42343711074968357734, 4.63033784615654529590,
         5.76949722146069140550, 3.64784832476320460504,
         1.27045825245236838258, 2.41780725177450611770e-1,
         2.27238449892691845833e-2, 7.74545014278341407640e-4]
    d = [1.0, 2.05319162663775882187, 1.67638483018380384940,
         6.89767334985100004550e-1, 1.48103976427480074590e-1,
         1.51986665636164571966e-2, 5.47593808499534494600e-4,
         1.05075007164441684324e-9]
    e = [6.65790464350110377720, 5.46378491116411436990,
         1.78482653991729133580, 2.96560571828504891230e-1,
         2.65321895265761230930e-2, 1.24266094738807843860e-3,
         2.71155556874348757815e-5, 2.01033439929228813265e-7]
    f = [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
         1.48753612908506148525e-2, 7.86869131145613259100e-4,
         1.84631831751005468180e-5, 1.42151175831644588870e-7,
         2.04426310338993978564e-15]

    def poly(coef, x, acc=None):
        # Horner's rule in ``acc`` (a new array if None): the same multiplies
        # and adds, in the same order, as acc = acc * x + ck.
        acc = np.empty_like(x) if acc is None else acc
        acc.fill(coef[-1])
        for ck in coef[-2::-1]:
            acc *= x
            acc += ck
        return acc

    # The central formula runs in place over every element, then the tail
    # elements overwrite theirs.  Off the centre (0.425 < |q| <= 0.5) r lies
    # in [-0.0694, 0], where poly(b, r) >= 0.00217, so those elements raise
    # no floating-point flag.
    q = np.subtract(p, 0.5, out=np.empty_like(p))
    r = np.abs(q, out=np.empty_like(p))
    tail = np.flatnonzero(r > 0.425)
    qt, pt = q[tail], p[tail]  # read before ``res``, which may be ``p``
    np.square(q, out=r)
    np.subtract(0.180625, r, out=r)
    poly(a, r, res)
    res *= q
    res /= poly(b, r, q)
    if tail.size:
        r = np.where(qt < 0.0, pt, 1.0 - pt)
        r = np.sqrt(-np.log(r))
        # Likewise the near-tail formula runs over every tail element (there
        # 0 < x < 25.7, so both polynomials stay finite and poly(d, x) >= 1),
        # then the far tail, r > 5, overwrites its own.
        x = r - 1.6
        val = poly(c, x) / poly(d, x)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            x = r[far] - 5.0
            val[far] = poly(e, x) / poly(f, x)
        res[tail] = np.sign(qt) * val
    if out is not None:
        return out
    return float(res[0]) if scalar else res


def _invert(matrix, error_cls, what):
    try:
        return invert_matrix(matrix)
    except SingularJacobianError as exc:
        raise error_cls(f"{what} is singular: {exc}") from exc


def _stacked_components(theta_hat, design, outcome, pi, n_population,
                        selection=None):
    """The blocks of the stacked (theta, alpha) sandwich at ``pi``.

    With ``selection`` None, the theta score's bread and meat at fixed
    ``pi``.  Otherwise ``selection`` is ``(xi, blocks, what)``: the selection
    design, a function ``blocks(z, d - mu, n)`` giving the selection score's
    Hessian ``h``, its covariance ``cross`` with the theta score and its
    variance ``bracket``, and the name of ``h`` in a SingularHError.
    ``k = g_alpha h^-1`` carries both into the theta meat:
    ``e_hat = e1 - k cross - (k cross)' + k bracket k'``.
    """
    z = coerce_design(design).matrix
    d = binary_outcome(outcome, z.shape[0])
    pi = row_vector(pi, z.shape[0], "selection probabilities")
    mu = expit(z @ coefficients_for(z, theta_hat, "theta_hat"))
    n = population_size(n_population, "n_population")
    g_pos = weighted_cross(z, mu * (1.0 - mu) / pi, z) / n
    e1 = weighted_cross(z, (d - mu) ** 2 / pi**2, z) / n
    if selection is None:
        return SandwichComponents(g_theta=-g_pos, e_hat=e1, n_population=n,
                                  e1=e1)
    xi, blocks, what = selection
    resid = d - mu
    h_pos, cross, bracket = blocks(z, resid, n)
    g_alpha_pos = weighted_cross(z, (1.0 - pi) / pi * resid, xi) / n
    k = g_alpha_pos @ _invert(h_pos, SingularHError, what)
    e2 = k @ cross
    e4 = k @ bracket @ k.T
    return SandwichComponents(g_theta=-g_pos, e_hat=e1 - e2 - e2.T + e4,
                              n_population=n, g_alpha=-g_alpha_pos,
                              h_hat=-h_pos, e1=e1, e2=e2, e4=e4)


def known_weights_components(theta_hat, design, outcome, pi, n_population):
    design = coerce_design(design)
    pi = probability_vector(pi, design.n, "selection probabilities")
    return _stacked_components(theta_hat, design, outcome, pi, n_population)


def vcov_known_weights(theta_hat, design, outcome, pi, n_population):
    """Sandwich variance treating the selection probabilities as known."""
    return known_weights_components(theta_hat, design, outcome, pi,
                                    n_population).vcov()


def pl_components(theta_hat, alpha_hat, design, outcome, selection_design,
                  external_design, pi_ext, n_population,
                  internal_in_external, internal_pi_ext):
    xi = coerce_design(selection_design).matrix
    xe = coerce_design(external_design).matrix
    alpha_hat = coefficients_for(xi, alpha_hat, "alpha_hat")
    coefficients_for(xe, alpha_hat, "alpha_hat")
    pi_ext = probability_vector(pi_ext, xe.shape[0],
                                "external design probabilities")
    mask = row_mask(internal_in_external, xi.shape[0], "internal_in_external")
    rows = np.flatnonzero(mask)
    pi_ext_both = probability_vector(internal_pi_ext, mask.size,
                                     "internal_pi_ext", rows)
    pi_int = logistic_selection_pi(xi, alpha_hat)
    pi_at_ext = logistic_selection_pi(xe, alpha_hat)

    def blocks(z, resid, n):
        h_pos = weighted_cross(xe, pi_at_ext * (1.0 - pi_at_ext) / pi_ext,
                               xe) / n
        cross = weighted_cross(xi, resid / pi_int, z) / n
        bracket = (xi.T @ xi) / n
        if rows.size:
            # ``take`` copies whole rows; xi[rows] gathers a value at a time.
            xi_both = np.take(xi, rows, axis=0)
            cross -= weighted_cross(xi_both, resid[rows] / pi_ext_both,
                                    np.take(z, rows, axis=0)) / n
            bracket -= 2.0 * (
                weighted_cross(xi_both, pi_int[rows] / pi_ext_both, xi_both) / n
            )
        bracket += weighted_cross(xe, (pi_at_ext / pi_ext) ** 2, xe) / n
        return h_pos, cross, bracket

    return _stacked_components(theta_hat, design, outcome, pi_int, n_population,
                               (xi, blocks, "selection-score Hessian"))


def vcov_pl(theta_hat, alpha_hat, design, outcome, selection_design,
            external_design, pi_ext, n_population,
            internal_in_external, internal_pi_ext):
    """Two-step sandwich variance for the pseudolikelihood estimator.

    ``internal_in_external`` flags internal units also present in the
    external sample.  ``internal_pi_ext`` has one entry per internal row:
    the known external probabilities of the flagged rows, each in (0, 1];
    the other entries are ignored.
    """
    return pl_components(theta_hat, alpha_hat, design, outcome,
                         selection_design, external_design, pi_ext,
                         n_population, internal_in_external,
                         internal_pi_ext).vcov()


def cl_components(theta_hat, alpha_hat, design, outcome, selection_design,
                  n_population):
    xi = coerce_design(selection_design).matrix
    pi = logistic_selection_pi(xi, coefficients_for(xi, alpha_hat, "alpha_hat"))

    def blocks(z, resid, n):
        h_pos = weighted_cross(xi, (1.0 - pi) / pi, xi) / n
        cross = weighted_cross(xi, (1.0 - pi) / pi**2 * resid, z) / n
        bracket = weighted_cross(xi, (1.0 - pi) / pi**2, xi) / n
        return h_pos, cross, bracket

    return _stacked_components(theta_hat, design, outcome, pi, n_population,
                               (xi, blocks, "calibration-score Hessian"))


def vcov_cl(theta_hat, alpha_hat, design, outcome, selection_design,
            n_population):
    """Two-step sandwich variance for the calibration estimator."""
    return cl_components(theta_hat, alpha_hat, design, outcome,
                         selection_design, n_population).vcov()


def wald_ci(theta_hat, vcov):
    """Per-coefficient two-sided Wald intervals at ``CI_LEVEL`` of the
    estimates ``theta_hat`` and their covariance matrix ``vcov``; returns an
    array of (lower, upper) rows."""
    theta_hat = numeric_array(theta_hat, "theta_hat").ravel()
    vcov = numeric_array(vcov, "vcov")
    k = theta_hat.size
    if vcov.shape != (k, k):
        raise ValidationError(f"vcov has shape {vcov.shape}, not ({k}, {k})")
    diag = np.diag(vcov)
    if not (np.all(np.isfinite(theta_hat)) and np.all(np.isfinite(diag))):
        raise ValidationError("theta_hat and the vcov diagonal must be finite")
    if np.any(diag < 0.0):
        raise ValidationError("vcov has negative diagonal entries")
    half = normal_quantile(0.5 * (1.0 + CI_LEVEL)) * np.sqrt(diag)
    return np.column_stack([theta_hat - half, theta_hat + half])
