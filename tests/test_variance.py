import numpy as np
import pytest

import selweight as sw
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


def test_wald_interval_examples():
    ci = sw.wald_ci(np.array([0.0]), np.array([[1.0]]))
    assert ci[0, 0] == pytest.approx(-1.959964, abs=1e-6)
    assert ci[0, 1] == pytest.approx(1.959964, abs=1e-6)
    ci = sw.wald_ci(np.array([1.0]), np.array([[4.0]]), level=0.5)
    assert ci[0, 0] == pytest.approx(1.0 - 2 * 0.674490, abs=1e-5)
    assert ci[0, 1] == pytest.approx(1.0 + 2 * 0.674490, abs=1e-5)
    degenerate = sw.wald_ci(np.array([2.5]), np.array([[0.0]]))
    assert degenerate[0, 0] == degenerate[0, 1] == 2.5


def test_wald_validation():
    with pytest.raises(sw.ValidationError):
        sw.wald_ci(np.array([0.0]), np.array([[-1.0]]))
    with pytest.raises(sw.ValidationError):
        sw.wald_ci(np.array([0.0]), np.array([[1.0]]), level=1.5)


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
    assert np.max(np.abs(comp.e3 - e2.T)) <= 1e-12
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
    theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, _ = _pl_toy()
    with pytest.raises(sw.ValidationError):
        sw.vcov_pl(theta, alpha, z, d, xi, xe, pi_ext, n_pop, mask, None)


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
