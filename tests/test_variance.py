import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import selweight as sw
from selweight import simulation, variance
from selweight.variance import cl_components, known_weights_components, pl_components


def expit(v):
    return 1.0 / (1.0 + np.exp(-v))


# ---------------------------------------------------------------------------
# normal quantile / Wald intervals


def test_normal_quantile_matches_tabulated_values():
    assert sw.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert sw.normal_quantile(0.75) == pytest.approx(0.674490, abs=1e-6)
    assert sw.normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert sw.normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)


def test_normal_quantile_round_trips_through_distribution():
    from scipy.stats import norm

    p = np.concatenate([np.array([1e-14, 1e-9, 1e-4]),
                        np.linspace(0.01, 0.99, 21),
                        np.array([1 - 1e-9])])
    assert np.max(np.abs(sw.normal_quantile(p) - norm.ppf(p))) <= 1e-9


def reference_normal_quantile(p):
    """The out-of-place Horner form with boolean-mask gathers, kept as the
    bit-for-bit reference."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise sw.ValidationError("normal_quantile requires probabilities in (0, 1)")
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
        acc = np.full_like(x, coef[-1])
        for ck in coef[-2::-1]:
            acc = acc * x + ck
        return acc

    q = p - 0.5
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * poly(a, r) / poly(b, r)
    tail = ~central
    if np.any(tail):
        r = np.where(q[tail] < 0.0, p[tail], 1.0 - p[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = poly(c, r[near] - 1.6) / poly(d, r[near] - 1.6)
        val[~near] = poly(e, r[~near] - 5.0) / poly(f, r[~near] - 5.0)
        out[tail] = np.sign(q[tail]) * val
    return float(out[0]) if scalar else out


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def steps_around(x, k=40):
    """x and its k nearest floats on each side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


# The sampler's clip ends, the centre, both sides of the central-region edge
# |p - 0.5| = 0.425 and both sides of the tail split sqrt(-log p) = 5.
QUANTILE_SPECIALS = np.array(
    [1e-300, 1.0 - 1e-16, 0.5, 5e-324, np.nextafter(1.0, 0.0)]
    + steps_around(0.075) + steps_around(0.925)
    + list(np.exp(-25.0) * (1.0 + 1e-14 * np.arange(-20, 21)))
    + list(1.0 - np.exp(-25.0) * (1.0 + 1e-5 * np.arange(-20, 21))))


def test_normal_quantile_specials_match_reference_bit_for_bit():
    p = QUANTILE_SPECIALS
    central = np.abs(p - 0.5) <= 0.425
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    assert central.any() and (~central).any()
    assert np.any(~central & (r <= 5.0)) and np.any(~central & (r > 5.0))
    assert same_bits(sw.normal_quantile(p), reference_normal_quantile(p))
    for value in p:
        got = sw.normal_quantile(value)
        assert type(got) is float
        assert same_bits(got, reference_normal_quantile(value))
    for bad in (0.0, 1.0, -0.5, 1.5, [0.5, 0.0], np.nan, [0.5, np.nan]):
        with pytest.raises(sw.ValidationError, match=r"\(0, 1\)"):
            sw.normal_quantile(bad)


@pytest.mark.parametrize("low, high", [(0.1, 0.9), (1e-300, 0.07),
                                       (0.93, 1.0 - 1e-16), (1e-300, 1.0 - 1e-16)])
def test_normal_quantile_regions_match_reference_bit_for_bit(low, high):
    p = np.random.default_rng(3).uniform(low, high, size=5000)
    assert same_bits(sw.normal_quantile(p), reference_normal_quantile(p))


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(0, 60),
              elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_normal_quantile_matches_reference_bit_for_bit(p):
    assert same_bits(sw.normal_quantile(p), reference_normal_quantile(p))


def check_quantile_out(p):
    expected = reference_normal_quantile(p)
    buf = np.full_like(p, np.nan)
    assert sw.normal_quantile(p, out=buf) is buf
    assert same_bits(buf, expected)
    aliased = p.copy()
    assert sw.normal_quantile(aliased, out=aliased) is aliased
    assert same_bits(aliased, expected)


def test_normal_quantile_out_matches_reference_on_specials():
    check_quantile_out(QUANTILE_SPECIALS.copy())


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(0, 60),
              elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_normal_quantile_out_matches_reference_bit_for_bit(p):
    check_quantile_out(p)


def test_wald_interval_examples(monkeypatch):
    ci = sw.wald_ci(np.array([0.0]), np.array([[1.0]]))
    assert ci[0, 0] == pytest.approx(-1.959964, abs=1e-6)
    assert ci[0, 1] == pytest.approx(1.959964, abs=1e-6)
    degenerate = sw.wald_ci(np.array([2.5]), np.array([[0.0]]))
    assert degenerate[0, 0] == degenerate[0, 1] == 2.5
    # The level is read from variance.CI_LEVEL when the intervals are taken.
    monkeypatch.setattr(variance, "CI_LEVEL", 0.5)
    ci = sw.wald_ci(np.array([1.0]), np.array([[4.0]]))
    assert ci[0, 0] == pytest.approx(1.0 - 2 * 0.674490, abs=1e-5)
    assert ci[0, 1] == pytest.approx(1.0 + 2 * 0.674490, abs=1e-5)


def test_wald_ci_takes_only_the_estimates_and_their_covariance_matrix():
    assert list(inspect.signature(sw.wald_ci).parameters) == ["theta_hat",
                                                             "vcov"]


def test_ci_level_is_defined_once_in_variance():
    sources = Path(sw.__file__).parent.glob("*.py")
    defined = sorted(path.name for path in sources
                     if re.search(r"^CI_LEVEL\b", path.read_text(), re.M))
    assert defined == ["variance.py"]
    assert simulation.CI_LEVEL is variance.CI_LEVEL == 0.95


@pytest.mark.parametrize("vcov, message", [
    ([[-1.0]], "^vcov has negative diagonal entries$"),
    ([1.0], r"^vcov has shape \(1,\), not \(1, 1\)$"),
    ([[1.0, 0.0]], r"^vcov has shape \(1, 2\), not \(1, 1\)$"),
    (np.eye(2), r"^vcov has shape \(2, 2\), not \(1, 1\)$"),
])
def test_wald_validation(vcov, message):
    with pytest.raises(sw.ValidationError, match=message):
        sw.wald_ci(np.array([0.0]), vcov)


# ---------------------------------------------------------------------------
# known-weights sandwich


def test_known_weights_matches_hand_assembled_sums():
    z = np.array([[1.0, -0.8], [1.0, 0.3], [1.0, 1.4],
                  [1.0, -1.1], [1.0, 0.6], [1.0, 2.0]])
    d = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    pi = np.array([0.4, 0.7, 0.9, 0.3, 0.6, 0.8])
    theta = np.array([-0.3, 0.9])
    n_pop = 15

    g = np.zeros((2, 2))
    e = np.zeros((2, 2))
    for i in range(6):
        mu = expit(z[i] @ theta)
        g -= mu * (1 - mu) / pi[i] * np.outer(z[i], z[i]) / n_pop
        e += (d[i] - mu) ** 2 / pi[i] ** 2 * np.outer(z[i], z[i]) / n_pop
    comp = known_weights_components(theta, z, d, pi, n_pop)
    assert np.max(np.abs(comp.g_theta - g)) <= 1e-12
    assert np.max(np.abs(comp.e_hat - e)) <= 1e-12
    g_inv = np.linalg.inv(g)
    expected = g_inv @ e @ g_inv.T / n_pop
    vcov = sw.vcov_known_weights(theta, z, d, pi, n_pop)
    assert np.max(np.abs(vcov - expected)) <= 1e-12


def test_unit_probability_sandwich_close_to_fisher_information():
    rng = np.random.default_rng(77)
    n = 20_000
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = (rng.random(n) < expit(-0.5 + 0.7 * x[:, 1])).astype(float)
    design = sw.DesignMatrix(x, ["intercept", "x"])
    model = sw.fit_weighted_logistic(design, d)
    vcov = sw.vcov_known_weights(model.coefficients, design, d,
                                 np.ones(n), n)
    mu = expit(x @ model.coefficients)
    fisher = (x.T * (mu * (1 - mu))) @ x
    model_based = np.linalg.inv(fisher)
    ratio = np.diag(vcov) / np.diag(model_based)
    assert np.all(np.abs(ratio - 1.0) <= 0.10)


def test_sandwich_symmetric_nonnegative_diagonal():
    rng = np.random.default_rng(9)
    n = 200
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    d = (rng.random(n) < expit(x @ np.array([-0.2, 0.5, -0.3]))).astype(float)
    pi = rng.uniform(0.2, 0.95, size=n)
    design = sw.DesignMatrix(x, ["intercept", "a", "b"])
    model = sw.fit_weighted_logistic(design, d, pi)
    vcov = sw.vcov_known_weights(model.coefficients, design, d, pi, 500)
    assert np.max(np.abs(vcov - vcov.T)) <= 1e-10
    assert np.all(np.diag(vcov) >= 0.0)


def test_singular_bread_raises():
    z = np.ones((4, 2))  # duplicate columns
    d = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(sw.SingularBreadError):
        sw.vcov_known_weights(np.zeros(2), z, d, np.full(4, 0.5), 10)


# ---------------------------------------------------------------------------
# two-step sandwiches, loop-coded component oracles


def _pl_toy():
    rng = np.random.default_rng(123)
    n_int, n_ext, n_pop = 10, 12, 30
    z = np.column_stack([np.ones(n_int), rng.normal(size=n_int)])
    d = (rng.random(n_int) < 0.5).astype(float)
    xi = np.column_stack([np.ones(n_int), rng.normal(size=n_int)])
    xe = np.column_stack([np.ones(n_ext), rng.normal(size=n_ext)])
    pi_ext = rng.uniform(0.3, 0.9, size=n_ext)
    mask = np.zeros(n_int, dtype=bool)
    mask[[1, 4, 7]] = True
    pi_ext_int = np.full(n_int, np.nan)
    pi_ext_int[mask] = rng.uniform(0.3, 0.9, size=3)
    theta = np.array([0.2, -0.4])
    alpha = np.array([-0.5, 0.3])
    return (theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int)


def test_pl_components_match_loop_coded_sums():
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    n_int, n_ext = z.shape[0], xe.shape[0]

    mu = np.array([expit(z[i] @ theta) for i in range(n_int)])
    pii = np.array([expit(xi[i] @ alpha) for i in range(n_int)])
    pie = np.array([expit(xe[i] @ alpha) for i in range(n_ext)])

    g_theta = np.zeros((2, 2))
    g_alpha = np.zeros((2, 2))
    e1 = np.zeros((2, 2))
    for i in range(n_int):
        g_theta -= mu[i] * (1 - mu[i]) / pii[i] * np.outer(z[i], z[i]) / n_pop
        g_alpha -= ((1 - pii[i]) / pii[i] * (d[i] - mu[i])
                    * np.outer(z[i], xi[i]) / n_pop)
        e1 += (d[i] - mu[i]) ** 2 / pii[i] ** 2 * np.outer(z[i], z[i]) / n_pop
    h = np.zeros((2, 2))
    for i in range(n_ext):
        h -= pie[i] / pi_ext[i] * (1 - pie[i]) * np.outer(xe[i], xe[i]) / n_pop
    k = g_alpha @ np.linalg.inv(h)

    cross = np.zeros((2, 2))
    for i in range(n_int):
        cross += (d[i] - mu[i]) / pii[i] * np.outer(xi[i], z[i]) / n_pop
        if mask[i]:
            cross -= (d[i] - mu[i]) / pi_ext_int[i] * np.outer(xi[i], z[i]) / n_pop
    e2 = k @ cross
    bracket = np.zeros((2, 2))
    for i in range(n_int):
        bracket += np.outer(xi[i], xi[i]) / n_pop
        if mask[i]:
            bracket -= 2 * pii[i] / pi_ext_int[i] * np.outer(xi[i], xi[i]) / n_pop
    for i in range(n_ext):
        bracket += (pie[i] / pi_ext[i]) ** 2 * np.outer(xe[i], xe[i]) / n_pop
    e4 = k @ bracket @ k.T
    e_hat = e1 - e2 - e2.T + e4

    comp = pl_components(theta, alpha, z, d, xi, xe, pi_ext, n_pop,
                         mask, pi_ext_int)
    assert np.max(np.abs(comp.g_theta - g_theta)) <= 1e-12
    assert np.max(np.abs(comp.g_alpha - g_alpha)) <= 1e-12
    assert np.max(np.abs(comp.h_hat - h)) <= 1e-12
    assert np.max(np.abs(comp.e1 - e1)) <= 1e-12
    assert np.max(np.abs(comp.e2 - e2)) <= 1e-12
    assert np.max(np.abs(comp.e4 - e4)) <= 1e-12
    assert np.max(np.abs(comp.e_hat - e_hat)) <= 1e-12

    g_inv = np.linalg.inv(g_theta)
    expected = g_inv @ e_hat @ g_inv.T / n_pop
    vcov = sw.vcov_pl(theta, alpha, z, d, xi, xe, pi_ext, n_pop,
                      mask, pi_ext_int)
    assert np.max(np.abs(vcov - expected)) <= 1e-12


def test_pl_fixed_weight_blocks_match_known_weights():
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    pii = expit(xi @ alpha)
    comp = pl_components(theta, alpha, z, d, xi, xe, pi_ext, n_pop,
                         mask, pi_ext_int)
    known = known_weights_components(theta, z, d, pii, n_pop)
    assert np.max(np.abs(comp.g_theta - known.g_theta)) <= 1e-14
    assert np.max(np.abs(comp.e1 - known.e1)) <= 1e-14


def test_pl_requires_overlap_probabilities():
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    # One entry per internal row, flagged rows or not.
    for flagged in (mask, np.zeros_like(mask)):
        for wrong in (None, pi_ext_int[:-1]):
            with pytest.raises(sw.ValidationError,
                               match=r"^internal_pi_ext have \d+ entries for "
                                     "10 design rows$"):
                sw.vcov_pl(theta, alpha, z, d, xi, xe, pi_ext, n_pop, flagged,
                           wrong)
    for function in (sw.vcov_pl, pl_components):
        parameter = inspect.signature(function).parameters["internal_pi_ext"]
        assert parameter.default is inspect.Parameter.empty


def test_sandwich_components_have_no_transposed_copy_of_e2():
    fields = [f.name for f in dataclasses.fields(sw.SandwichComponents)]
    assert fields == ["g_theta", "e_hat", "n_population", "g_alpha", "h_hat",
                      "e1", "e2", "e4"]


def test_pl_repeated_selection_column_is_a_singular_h():
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    # The disease design z stays full rank; only the selection score's
    # Hessian, which the external design carries, is singular.
    xi, xe = (np.column_stack([x, x[:, 1]]) for x in (xi, xe))
    alpha = np.array([alpha[0], 0.5 * alpha[1], 0.5 * alpha[1]])
    with pytest.raises(sw.SingularHError, match="^selection-score Hessian"):
        sw.vcov_pl(theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int)


def _cl_toy():
    rng = np.random.default_rng(321)
    n_int, n_pop = 10, 25
    z = np.column_stack([np.ones(n_int), rng.normal(size=n_int)])
    d = (rng.random(n_int) < 0.5).astype(float)
    xi = np.column_stack([np.ones(n_int), rng.normal(size=n_int)])
    theta = np.array([0.1, 0.6])
    alpha = np.array([-0.4, 0.2])
    return theta, alpha, z, d, xi, n_pop


def test_cl_components_match_loop_coded_sums():
    theta, alpha, z, d, xi, n_pop = _cl_toy()
    n_int = z.shape[0]
    mu = expit(z @ theta)
    pii = expit(xi @ alpha)

    g_theta = np.zeros((2, 2))
    g_alpha = np.zeros((2, 2))
    h = np.zeros((2, 2))
    e1 = np.zeros((2, 2))
    cross = np.zeros((2, 2))
    bracket = np.zeros((2, 2))
    for i in range(n_int):
        g_theta -= mu[i] * (1 - mu[i]) / pii[i] * np.outer(z[i], z[i]) / n_pop
        g_alpha -= ((1 - pii[i]) / pii[i] * (d[i] - mu[i])
                    * np.outer(z[i], xi[i]) / n_pop)
        h -= (1 - pii[i]) / pii[i] * np.outer(xi[i], xi[i]) / n_pop
        e1 += (d[i] - mu[i]) ** 2 / pii[i] ** 2 * np.outer(z[i], z[i]) / n_pop
        cross += ((1 - pii[i]) / pii[i] ** 2 * (d[i] - mu[i])
                  * np.outer(xi[i], z[i]) / n_pop)
        bracket += (1 - pii[i]) / pii[i] ** 2 * np.outer(xi[i], xi[i]) / n_pop
    k = g_alpha @ np.linalg.inv(h)
    e2 = k @ cross
    e4 = k @ bracket @ k.T
    e_hat = e1 - e2 - e2.T + e4

    comp = cl_components(theta, alpha, z, d, xi, n_pop)
    assert np.max(np.abs(comp.g_theta - g_theta)) <= 1e-12
    assert np.max(np.abs(comp.g_alpha - g_alpha)) <= 1e-12
    assert np.max(np.abs(comp.h_hat - h)) <= 1e-12
    assert np.max(np.abs(comp.e1 - e1)) <= 1e-12
    assert np.max(np.abs(comp.e2 - e2)) <= 1e-12
    assert np.max(np.abs(comp.e4 - e4)) <= 1e-12
    assert np.max(np.abs(comp.e_hat - e_hat)) <= 1e-12

    g_inv = np.linalg.inv(g_theta)
    expected = g_inv @ e_hat @ g_inv.T / n_pop
    vcov = sw.vcov_cl(theta, alpha, z, d, xi, n_pop)
    assert np.max(np.abs(vcov - expected)) <= 1e-12


def test_cl_repeated_selection_column_is_a_singular_h():
    theta, alpha, z, d, xi, n_pop = _cl_toy()
    xi = np.column_stack([xi, xi[:, 1]])
    alpha = np.array([alpha[0], 0.5 * alpha[1], 0.5 * alpha[1]])
    with pytest.raises(sw.SingularHError, match="^calibration-score Hessian"):
        sw.vcov_cl(theta, alpha, z, d, xi, n_pop)


def test_cl_fixed_weight_blocks_match_known_weights():
    theta, alpha, z, d, xi, n_pop = _cl_toy()
    pii = expit(xi @ alpha)
    comp = cl_components(theta, alpha, z, d, xi, n_pop)
    known = known_weights_components(theta, z, d, pii, n_pop)
    assert np.max(np.abs(comp.g_theta - known.g_theta)) <= 1e-14
    assert np.max(np.abs(comp.e1 - known.e1)) <= 1e-14


def test_two_step_sandwiches_symmetric():
    theta, alpha, z, d, xi, n_pop = _cl_toy()
    vcov = sw.vcov_cl(theta, alpha, z, d, xi, n_pop)
    assert np.max(np.abs(vcov - vcov.T)) <= 1e-10
    assert np.all(np.diag(vcov) >= 0.0)


# ---------------------------------------------------------------------------
# inputs every sandwich rejects


def _known_args(**changes):
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    args = dict(theta_hat=theta, design=z, outcome=d,
                pi=np.linspace(0.3, 0.9, z.shape[0]), n_population=n_pop)
    args.update(changes)
    return args


def _pl_args(**changes):
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, pi_ext_int = _pl_toy()
    args = dict(theta_hat=theta, alpha_hat=alpha, design=z, outcome=d,
                selection_design=xi, external_design=xe, pi_ext=pi_ext,
                n_population=n_pop, internal_in_external=mask,
                internal_pi_ext=pi_ext_int)
    args.update(changes)
    return args


def _cl_args(**changes):
    theta, alpha, z, d, xi, n_pop = _cl_toy()
    args = dict(theta_hat=theta, alpha_hat=alpha, design=z, outcome=d,
                selection_design=xi, n_population=n_pop)
    args.update(changes)
    return args


def _with(values, index, value):
    values = np.array(values, dtype=float)
    values[index] = value
    return values


PI = _known_args()["pi"]
PI_EXT = _pl_args()["pi_ext"]
PI_EXT_INT = _pl_args()["internal_pi_ext"]
OUTCOME = _known_args()["outcome"]
REJECTED = {
    "known-pi-nan": (sw.vcov_known_weights, _known_args(pi=_with(PI, 2, np.nan))),
    "known-pi-zero": (sw.vcov_known_weights, _known_args(pi=_with(PI, 2, 0.0))),
    "known-pi-above-one": (sw.vcov_known_weights,
                           _known_args(pi=_with(PI, 2, 1.5))),
    "known-pi-short": (sw.vcov_known_weights, _known_args(pi=PI[:-1])),
    "known-outcome-short": (sw.vcov_known_weights,
                            _known_args(outcome=OUTCOME[:-1])),
    "pl-pi-ext-nan": (sw.vcov_pl, _pl_args(pi_ext=_with(PI_EXT, 0, np.nan))),
    "pl-pi-ext-zero": (sw.vcov_pl, _pl_args(pi_ext=_with(PI_EXT, 0, 0.0))),
    "pl-pi-ext-above-one": (sw.vcov_pl, _pl_args(pi_ext=_with(PI_EXT, 0, 1.5))),
    "pl-pi-ext-short": (sw.vcov_pl, _pl_args(pi_ext=PI_EXT[:-1])),
    "pl-outcome-short": (sw.vcov_pl, _pl_args(outcome=OUTCOME[:-1])),
    "pl-flagged-pi-nan": (sw.vcov_pl,
                          _pl_args(internal_pi_ext=_with(PI_EXT_INT, 4, np.nan))),
    "pl-flagged-pi-zero": (sw.vcov_pl,
                           _pl_args(internal_pi_ext=_with(PI_EXT_INT, 4, 0.0))),
    "pl-flagged-pi-above-one": (sw.vcov_pl, _pl_args(
        internal_pi_ext=_with(PI_EXT_INT, 4, 1.5))),
    "cl-outcome-short": (sw.vcov_cl, _cl_args(outcome=OUTCOME[:-1])),
    "known-outcome-two": (sw.vcov_known_weights,
                          _known_args(outcome=_with(OUTCOME, 3, 2.0))),
    "pl-alpha-short": (sw.vcov_pl, _pl_args(
        alpha_hat=_pl_args()["alpha_hat"][:-1])),
    "cl-alpha-long": (sw.vcov_cl, _cl_args(
        alpha_hat=np.append(_cl_args()["alpha_hat"], 0.1))),
}


@pytest.mark.parametrize("case", REJECTED)
def test_sandwiches_reject_bad_probabilities_and_lengths(case):
    vcov, args = REJECTED[case]
    with pytest.raises(sw.ValidationError):
        vcov(**args)


@pytest.mark.parametrize("vcov, args", [
    (sw.vcov_known_weights, _known_args), (sw.vcov_pl, _pl_args),
    (sw.vcov_cl, _cl_args)])
def test_sandwiches_reject_a_nan_outcome_as_not_binary(vcov, args):
    with pytest.raises(sw.ValidationError, match="^outcome must be coded 0/1$"):
        vcov(**args(outcome=_with(OUTCOME, 0, np.nan)))


def test_coefficient_widths_are_named():
    with pytest.raises(sw.ValidationError,
                       match=r"^theta_hat have shape \(3,\), not \(2,\) "
                             "for a design of 2 columns$"):
        sw.vcov_known_weights(**_known_args(
            theta_hat=np.append(_known_args()["theta_hat"], 0.1)))
    with pytest.raises(sw.ValidationError, match="^alpha_hat have shape"):
        sw.vcov_cl(**_cl_args(alpha_hat=_cl_args()["alpha_hat"][:-1]))


def test_pl_ignores_unflagged_overlap_probabilities():
    # _pl_toy leaves the unflagged entries of internal_pi_ext NaN.
    args = _pl_args()
    assert np.isnan(args["internal_pi_ext"][~args["internal_in_external"]]).all()
    assert np.all(np.isfinite(sw.vcov_pl(**args)))


@pytest.mark.parametrize("components, vcov, args", [
    (known_weights_components, sw.vcov_known_weights, _known_args),
    (pl_components, sw.vcov_pl, _pl_args),
    (cl_components, sw.vcov_cl, _cl_args)])
def test_components_keep_the_population_size_they_were_divided_by(
        components, vcov, args):
    comp = components(**args())
    assert comp.n_population == args()["n_population"]
    assert comp.vcov().tobytes() == vcov(**args()).tobytes()
