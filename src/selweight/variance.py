"""Sandwich variance estimators for the weighted logistic estimator.

Three forms are provided.  ``vcov_known_weights`` treats the selection
probabilities as fixed (used for the plug-in SR weights, post-stratification
weights, true weights, and the unweighted fit).  ``vcov_pl`` and ``vcov_cl``
add the correction terms that propagate the uncertainty of the estimated
selection-model coefficients through their respective estimating equations.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularBreadError, SingularHError, ValidationError
from .fitters import _design_array, expit
from .solver import SingularJacobianError, invert_matrix
from .weights import logistic_selection_pi


@dataclass
class SandwichComponents:
    """Bread, meat, and nuisance blocks of one sandwich assembly.

    ``g_theta`` (bread) and ``h_hat`` follow the negative-definite sign
    convention of the underlying score derivatives; the assembled variance
    is invariant to that sign.  ``e1``..``e4`` are the meat pieces of the
    two-step estimators (``e_hat = e1 - e2 - e3 + e4``); for the
    known-weights form only ``e1`` is present and equals ``e_hat``.
    """

    g_theta: np.ndarray
    e_hat: np.ndarray
    g_alpha: Optional[np.ndarray] = None
    h_hat: Optional[np.ndarray] = None
    e1: Optional[np.ndarray] = None
    e2: Optional[np.ndarray] = None
    e3: Optional[np.ndarray] = None
    e4: Optional[np.ndarray] = None


def normal_quantile(p):
    """Standard normal inverse CDF via a rational approximation.

    Accurate to well below 1e-9 over the open unit interval; accepts scalars
    or arrays.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise ValidationError("normal_quantile requires probabilities in (0, 1)")
    out = np.empty_like(p)

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

    def poly(coef, x):
        # Horner's rule in place: the same multiplies and adds, in the same
        # order, as acc = acc * x + ck.
        acc = np.full_like(x, coef[-1])
        for ck in coef[-2::-1]:
            acc *= x
            acc += ck
        return acc

    q = p - 0.5
    central = np.abs(q) <= 0.425
    at = np.flatnonzero(central)
    if at.size:
        qc = q[at]
        r = 0.180625 - qc ** 2
        out[at] = qc * poly(a, r) / poly(b, r)
    at = np.flatnonzero(~central)
    if at.size:
        qt, pt = q[at], p[at]
        r = np.where(qt < 0.0, pt, 1.0 - pt)
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        x = r[near] - 1.6
        val[near] = poly(c, x) / poly(d, x)
        x = r[~near] - 5.0
        val[~near] = poly(e, x) / poly(f, x)
        out[at] = np.sign(qt) * val
    return float(out[0]) if scalar else out


def _invert(matrix, error_cls, what):
    try:
        return invert_matrix(matrix)
    except SingularJacobianError as exc:
        raise error_cls(f"{what} is singular: {exc}") from exc


def _assemble(g_positive, e_hat, n_population):
    g_inv = _invert(g_positive, SingularBreadError, "bread matrix")
    v = g_inv @ e_hat @ g_inv.T / n_population
    return 0.5 * (v + v.T)


def _fixed_weight_blocks(z, d, mu, pi, n):
    """Positive bread and meat of the weighted score at fixed ``pi``."""
    g_pos = (z.T * (mu * (1.0 - mu) / pi)) @ z / n
    e1 = (z.T * ((d - mu) ** 2 / pi**2)) @ z / n
    return g_pos, e1


def _two_step_components(g_pos, e1, g_alpha_pos, h_pos, cross, bracket, what):
    """Stack the theta score on the selection score (Stefanski & Boos 2002).

    ``cross`` is the covariance of the selection score with the theta score
    and ``bracket`` the variance of the selection score; ``k`` carries both
    into the theta meat: ``e_hat = e1 - k cross - (k cross)' + k bracket k'``.
    """
    k = g_alpha_pos @ _invert(h_pos, SingularHError, what)
    e2 = k @ cross
    e3 = e2.T
    e4 = k @ bracket @ k.T
    e_hat = e1 - e2 - e3 + e4
    return SandwichComponents(g_theta=-g_pos, e_hat=e_hat,
                              g_alpha=-g_alpha_pos, h_hat=-h_pos,
                              e1=e1, e2=e2, e3=e3, e4=e4)


def known_weights_components(theta_hat, design, outcome, pi, n_population):
    z = _design_array(design)
    d = np.asarray(outcome, dtype=float).ravel()
    pi = np.asarray(pi, dtype=float).ravel()
    mu = expit(z @ np.asarray(theta_hat, dtype=float))
    g_pos, e1 = _fixed_weight_blocks(z, d, mu, pi, n_population)
    return SandwichComponents(g_theta=-g_pos, e_hat=e1, e1=e1)


def vcov_known_weights(theta_hat, design, outcome, pi, n_population):
    """Sandwich variance treating the selection probabilities as known."""
    comp = known_weights_components(theta_hat, design, outcome, pi, n_population)
    return _assemble(-comp.g_theta, comp.e_hat, n_population)


def pl_components(theta_hat, alpha_hat, design, outcome, selection_design,
                  external_design, pi_ext, n_population,
                  internal_in_external, internal_pi_ext=None):
    z = _design_array(design)
    d = np.asarray(outcome, dtype=float).ravel()
    xi = _design_array(selection_design)
    xe = _design_array(external_design)
    pi_ext = np.asarray(pi_ext, dtype=float).ravel()
    mask = np.asarray(internal_in_external, dtype=bool).ravel()
    if mask.size != z.shape[0]:
        raise ValidationError("internal_in_external mask length mismatch")
    if mask.any():
        if internal_pi_ext is None:
            raise ValidationError(
                "internal_pi_ext is required when internal units overlap "
                "the external sample"
            )
        internal_pi_ext = np.asarray(internal_pi_ext, dtype=float).ravel()
        if internal_pi_ext.size != z.shape[0]:
            raise ValidationError("internal_pi_ext length mismatch")

    mu = expit(z @ np.asarray(theta_hat, dtype=float))
    pi_int = logistic_selection_pi(xi, alpha_hat)
    pi_at_ext = logistic_selection_pi(xe, alpha_hat)
    n = float(n_population)
    g_pos, e1 = _fixed_weight_blocks(z, d, mu, pi_int, n)
    resid = d - mu

    h_pos = (xe.T * (pi_at_ext * (1.0 - pi_at_ext) / pi_ext)) @ xe / n
    g_alpha_pos = (z.T * ((1.0 - pi_int) / pi_int * resid)) @ xi / n
    cross = (xi.T * (resid / pi_int)) @ z / n
    bracket = (xi.T @ xi) / n
    if mask.any():
        rows = np.flatnonzero(mask)
        xi_both = xi[rows]
        pi_ext_both = internal_pi_ext[rows]
        cross -= (xi_both.T * (resid[rows] / pi_ext_both)) @ z[rows] / n
        bracket -= 2.0 * (
            (xi_both.T * (pi_int[rows] / pi_ext_both)) @ xi_both / n
        )
    bracket += (xe.T * ((pi_at_ext / pi_ext) ** 2)) @ xe / n
    return _two_step_components(g_pos, e1, g_alpha_pos, h_pos, cross, bracket,
                                "selection-score Hessian")


def vcov_pl(theta_hat, alpha_hat, design, outcome, selection_design,
            external_design, pi_ext, n_population,
            internal_in_external, internal_pi_ext=None):
    """Two-step sandwich variance for the pseudolikelihood estimator.

    ``internal_in_external`` flags internal units also present in the
    external sample; their known external probabilities go in
    ``internal_pi_ext`` (entries outside the mask are ignored).
    """
    comp = pl_components(theta_hat, alpha_hat, design, outcome,
                         selection_design, external_design, pi_ext,
                         n_population, internal_in_external, internal_pi_ext)
    return _assemble(-comp.g_theta, comp.e_hat, n_population)


def cl_components(theta_hat, alpha_hat, design, outcome, selection_design,
                  n_population):
    z = _design_array(design)
    d = np.asarray(outcome, dtype=float).ravel()
    xi = _design_array(selection_design)
    mu = expit(z @ np.asarray(theta_hat, dtype=float))
    pi = logistic_selection_pi(xi, alpha_hat)
    n = float(n_population)
    g_pos, e1 = _fixed_weight_blocks(z, d, mu, pi, n)
    resid = d - mu

    h_pos = (xi.T * ((1.0 - pi) / pi)) @ xi / n
    g_alpha_pos = (z.T * ((1.0 - pi) / pi * resid)) @ xi / n
    cross = (xi.T * ((1.0 - pi) / pi**2 * resid)) @ z / n
    bracket = (xi.T * ((1.0 - pi) / pi**2)) @ xi / n
    return _two_step_components(g_pos, e1, g_alpha_pos, h_pos, cross, bracket,
                                "calibration-score Hessian")


def vcov_cl(theta_hat, alpha_hat, design, outcome, selection_design,
            n_population):
    """Two-step sandwich variance for the calibration estimator."""
    comp = cl_components(theta_hat, alpha_hat, design, outcome,
                         selection_design, n_population)
    return _assemble(-comp.g_theta, comp.e_hat, n_population)


def wald_ci(theta_hat, vcov, level=0.95):
    """Per-coefficient Wald intervals; returns an array of (lower, upper) rows."""
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    vcov = np.asarray(vcov, dtype=float)
    diag = np.diag(vcov) if vcov.ndim == 2 else vcov
    if diag.size != theta_hat.size:
        raise ValidationError("vcov dimension does not match theta_hat")
    if np.any(diag < 0.0):
        raise ValidationError("vcov has negative diagonal entries")
    if not (0.0 < level < 1.0):
        raise ValidationError("level must lie in (0, 1)")
    half = normal_quantile(0.5 * (1.0 + level)) * np.sqrt(diag)
    return np.column_stack([theta_hat - half, theta_hat + half])
