import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import selweight as sw
from selweight import fitters, solver
from selweight import weights as w_mod
from selweight.fitters import simplex_unit_deviance
from selweight.solver import solve_estimating_equation

from conftest import finite_difference_jacobian, grid_search_logistic, logit


def refine_grid_argmax(objective, bounds, steps=9, points=13):
    """Coordinate grid refinement for smooth strictly concave objectives."""
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    best = None
    for _ in range(steps):
        axes = [np.linspace(lo, hi, points) for lo, hi in zip(lows, highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.column_stack([m.ravel() for m in mesh])
        values = np.array([objective(row) for row in flat])
        best = flat[int(np.argmax(values))]
        span = (highs - lows) / (points - 1)
        lows = best - 2 * span
        highs = best + 2 * span
    return best


# ---------------------------------------------------------------------------
# weighted logistic


def test_intercept_only_balanced_outcome_gives_zero():
    design = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    model = sw.fit_weighted_logistic(design, [1, 0, 1, 0])
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-9)


def test_weighted_fit_matches_weighted_grid_search():
    x = np.array([-2.0, -1.2, -0.4, 0.1, 0.6, 1.1, 1.7, 2.3])
    d = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    pi = np.array([0.9, 0.4, 0.7, 0.2, 0.5, 0.8, 0.3, 0.6])
    design = sw.DesignMatrix(np.column_stack([np.ones(8), x]),
                             ["intercept", "x"])
    model = sw.fit_weighted_logistic(design, d, pi)
    oracle = grid_search_logistic(x, d, 1.0 / pi)
    assert np.max(np.abs(model.coefficients - oracle)) <= 1e-3


def test_score_residual_below_tolerance_at_solution():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(60), rng.normal(size=60)])
    d = (rng.random(60) < sw.expit(0.3 + 0.8 * x[:, 1])).astype(float)
    pi = rng.uniform(0.2, 1.0, size=60)
    design = sw.DesignMatrix(x, ["intercept", "x"])
    model = sw.fit_weighted_logistic(design, d, pi)
    score = x.T @ ((d - sw.expit(x @ model.coefficients)) / pi) / 60
    assert np.max(np.abs(score)) <= solver.TOL_SCORE


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0))
def test_constant_probabilities_cancel(c):
    rng = np.random.default_rng(11)
    x = np.column_stack([np.ones(40), rng.normal(size=40)])
    d = (rng.random(40) < sw.expit(-0.2 + x[:, 1])).astype(float)
    design = sw.DesignMatrix(x, ["intercept", "x"])
    base = sw.fit_weighted_logistic(design, d)
    scaled = sw.fit_weighted_logistic(design, d, np.full(40, c))
    assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**32 - 1))
def test_weight_scale_invariance(c, seed):
    # The solver stops on the unnormalised score, so rescaling the weights
    # may move the stop by one iteration: only the estimates are compared.
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(50), rng.normal(size=50)])
    d = (rng.random(50) < sw.expit(-0.3 + 0.9 * x[:, 1])).astype(float)
    d[:2] = (0.0, 1.0)
    pi = rng.uniform(0.05, 0.95, size=50) * min(1.0, 1.0 / c)
    design = sw.DesignMatrix(x, ["intercept", "x"])
    base = sw.fit_weighted_logistic(design, d, pi)
    scaled = sw.fit_weighted_logistic(design, d, c * pi)
    assert np.max(np.abs(scaled.coefficients - base.coefficients)) <= 1e-7


def test_degenerate_outcome_rejected():
    design = sw.DesignMatrix(np.ones((5, 1)), ["intercept"])
    with pytest.raises(sw.DegenerateOutcomeError):
        sw.fit_weighted_logistic(design, np.ones(5))


def test_empty_sample_is_a_validation_error():
    design = sw.DesignMatrix(np.empty((0, 3)), ["intercept", "z1", "z2"])
    with pytest.raises(sw.ValidationError, match="^need at least 3 rows, got 0$"):
        sw.fit_weighted_logistic(design, np.empty(0), np.empty(0))


def test_separated_data_raises():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    d = (x > 0).astype(float)
    design = sw.DesignMatrix(np.column_stack([np.ones(6), x]),
                             ["intercept", "x"])
    with pytest.raises(sw.SeparationError):
        sw.fit_weighted_logistic(design, d)


def _collinear_design(n=40):
    """An intercept, a covariate and its double: a rank-deficient design."""
    a = np.random.default_rng(5).normal(size=n)
    return sw.DesignMatrix(np.column_stack([np.ones(n), a, 2.0 * a]),
                           ["intercept", "a", "a2"])


COLLINEAR_FITS = {
    "weighted logistic fit": lambda x: sw.fit_weighted_logistic(
        x, np.arange(x.n) % 2),
    "multinomial fit": lambda x: sw.fit_multinomial(x, np.arange(x.n) % 3),
    "quasi-likelihood initialization": lambda x: sw.fit_simplex_regression(
        x, np.linspace(0.1, 0.9, x.n)),
    "pseudolikelihood selection fit": lambda x: sw.estimate_weights_pl(
        x, x, np.full(x.n, 0.25)),
    "calibration fit": lambda x: sw.estimate_weights_cl(
        x, sw.PopulationSummary("marginal_means", means=[0.0, 0.0],
                                names=["a", "a2"], population_size=4 * x.n)),
}


@pytest.mark.parametrize("what", COLLINEAR_FITS)
def test_singular_jacobian_is_a_rank_deficient_design_naming_the_fit(what):
    with pytest.raises(sw.RankDeficientDesignError,
                       match=f"^{what}: design is rank deficient: singular "
                             "factorization: pivot") as info:
        COLLINEAR_FITS[what](_collinear_design())
    # Code catching the solver's own error still catches it.
    assert isinstance(info.value, sw.SingularJacobianError)
    assert isinstance(info.value, sw.ValidationError)


def _selection_sample():
    """(an internal design, an external design, its design probabilities,
    a calibration summary) of one population."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=5000)
    internal = rng.random(x.size) < sw.expit(-0.5 + 0.6 * x)
    external = rng.random(x.size) < 0.3
    summary = sw.PopulationSummary("marginal_means", means=[x.mean()],
                                   names=["x"], population_size=x.size)
    return (sw.build_design([x[internal]], ["x"]),
            sw.build_design([x[external]], ["x"]),
            np.full(int(external.sum()), 0.3), summary)


# fit -> (an iteration budget it cannot converge in, the fit of a
# _selection_sample).
UNCONVERGED_FITS = {
    "weighted logistic fit": (1, lambda s: sw.fit_weighted_logistic(
        s[0], np.arange(s[0].n) % 2)),
    "pseudolikelihood selection fit": (1, lambda s: sw.estimate_weights_pl(
        *s[:3])),
    # Fewer iterations leave CL's residual above INFEASIBLE_RESIDUAL_FRACTION.
    "calibration fit": (3, lambda s: sw.estimate_weights_cl(s[0], s[3])),
}


@pytest.mark.parametrize("what", UNCONVERGED_FITS)
def test_an_unconverged_solve_raises_with_its_report(monkeypatch, what):
    budget, fit = UNCONVERGED_FITS[what]
    monkeypatch.setattr(solver, "MAX_ITER", budget)
    with pytest.raises(sw.NonConvergenceError) as info:
        fit(_selection_sample())
    report = info.value.report
    assert type(info.value) is sw.NonConvergenceError
    assert (report.converged, report.iterations, report.message) == (
        False, budget, "max iterations exceeded")
    assert str(info.value) == (
        f"{what} did not converge: max iterations exceeded (residual "
        f"{report.final_residual_norm:.3e} after {budget} iterations)")
    assert report.final_residual_norm > solver.TOL_SCORE


def test_calibration_far_from_its_totals_is_infeasible(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    internal, _, _, summary = _selection_sample()
    with pytest.raises(sw.InfeasibleTotalsError) as info:
        sw.estimate_weights_cl(internal, summary)
    residual = info.value.report.final_residual_norm
    assert residual > w_mod.INFEASIBLE_RESIDUAL_FRACTION
    assert str(info.value) == ("no logistic weighting matches the population "
                               f"totals (scaled residual {residual:.3e})")


def test_outcome_and_probability_validation():
    design = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    with pytest.raises(sw.ValidationError):
        sw.fit_weighted_logistic(design, [0, 1, 2, 0])
    with pytest.raises(sw.ValidationError):
        sw.fit_weighted_logistic(design, [0, 1, 1, 0], [0.5, 0.5, 0.5, 1.5])


def test_nan_selection_probability_is_a_validation_error():
    design = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    with pytest.raises(sw.ValidationError, match="selection probabilities"):
        sw.fit_weighted_logistic(design, [0, 1, 1, 0], [0.5, np.nan, 0.5, 1.0])


def test_nan_simplex_response_is_outside_the_interval():
    design = sw.build_design([[0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(sw.ResponseOnBoundaryError, match="index 1"):
        sw.fit_simplex_regression(design, [0.2, np.nan, 0.5, 0.7])


def test_true_weight_fit_recovers_generative_coefficients():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=123)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s == 1.0
    design = sw.DesignMatrix(
        np.column_stack([np.ones(int(mask.sum())), pop.z1[mask], pop.z2[mask]]),
        ["intercept", "z1", "z2"])
    model = sw.fit_weighted_logistic(design, pop.d[mask], pop.pi_true[mask])
    model.vcov = sw.vcov_known_weights(model.coefficients, design,
                                       pop.d[mask], pop.pi_true[mask], pop.n)
    se = np.sqrt(np.diag(model.vcov))
    assert np.all(np.abs(model.coefficients - np.array(cfg.theta)) <= 3 * se)


# ---------------------------------------------------------------------------
# multinomial


def test_intercept_only_multinomial_recovers_frequencies():
    design = sw.DesignMatrix(np.ones((10, 1)), ["intercept"])
    category = np.array([0] * 5 + [1] * 3 + [2] * 2)
    model = sw.fit_multinomial(design, category)
    probs = sw.multinomial_probabilities(model.coefficients, design)
    assert np.allclose(probs[0], [0.5, 0.3, 0.2], atol=1e-9)


def test_multinomial_matches_grid_search_maximizer():
    x = np.array([0., 0., 0., 0., 0., 0., 1., 1., 1., 1., 1., 1.])
    category = np.array([0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 0, 2])
    design = sw.DesignMatrix(np.column_stack([np.ones(12), x]),
                             ["intercept", "x"])
    model = sw.fit_multinomial(design, category)

    xmat = design.matrix

    def loglik(beta):
        probs = sw.multinomial_probabilities(beta.reshape(2, 2), xmat)
        return float(np.sum(np.log(probs[np.arange(12), category])))

    oracle = refine_grid_argmax(loglik, [(-5, 5)] * 4)
    assert np.max(np.abs(model.coefficients.ravel() - oracle)) <= 2e-3


def test_multinomial_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    x = np.column_stack([np.ones(200), rng.normal(size=200),
                         rng.normal(size=200)])
    design = sw.DesignMatrix(x, ["intercept", "a", "b"])
    category = rng.integers(0, 3, size=200)
    model = sw.fit_multinomial(design, category)
    probs = sw.multinomial_probabilities(model.coefficients, design)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_multinomial_empty_category_raises():
    design = sw.DesignMatrix(np.ones((6, 1)), ["intercept"])
    with pytest.raises(sw.EmptyCategoryError):
        sw.fit_multinomial(design, np.array([0, 0, 1, 1, 0, 1]))


# ---------------------------------------------------------------------------
# simplex regression


def simplex_log_density(y, mu, sigma2):
    """Log density of the simplex distribution on (0, 1)."""
    y = np.asarray(y, dtype=float)
    return (
        -0.5 * np.log(2.0 * np.pi * sigma2 * (y * (1.0 - y)) ** 3)
        - simplex_unit_deviance(y, mu) / (2.0 * sigma2)
    )


def sample_simplex(mu, sigma2, rng, grid_size=4096):
    """Accept-reject sampler against the simplex density (test oracle)."""
    mu = np.asarray(mu, dtype=float)
    out = np.empty(mu.size)
    ygrid = np.linspace(1e-4, 1 - 1e-4, grid_size)
    pending = np.arange(mu.size)
    dens_grid = np.exp(simplex_log_density(ygrid[None, :], mu[:, None], sigma2))
    bound = 1.3 * dens_grid.max(axis=1)
    while pending.size:
        y = rng.uniform(1e-6, 1 - 1e-6, size=pending.size)
        u = rng.uniform(0, 1, size=pending.size)
        dens = np.exp(simplex_log_density(y, mu[pending], sigma2))
        accept = u * bound[pending] < dens
        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    return out


def test_constant_response_interpolates():
    design = sw.DesignMatrix(np.ones((20, 1)), ["intercept"])
    model = sw.fit_simplex_regression(design, np.full(20, 0.75))
    assert model.coefficients[0] == pytest.approx(logit(0.75), abs=1e-8)
    mu = model.probabilities(design)
    assert np.max(simplex_unit_deviance(np.full(20, 0.75), mu)) <= 1e-12
    assert model.dispersion <= 1e-12


def test_simplex_sampler_recovery_over_seeds():
    delta = np.array([-0.5, 1.0])
    sigma2 = 0.5
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=2000)
        design = sw.DesignMatrix(np.column_stack([np.ones(2000), x]),
                                 ["intercept", "x"])
        mu = sw.expit(design.matrix @ delta)
        y = sample_simplex(mu, sigma2, rng)
        model = sw.fit_simplex_regression(design, y)
        errors.append(np.max(np.abs(model.coefficients - delta)))
    errors = np.asarray(errors)
    assert errors.mean() <= 0.1
    assert errors.max() <= 0.2


def test_external_design_probability_model_fit():
    # The scaled-logistic external model is misspecified for a logit mean
    # model, so the contract is prediction quality, not coefficient recovery.
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=99)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s_ext == 1.0
    design = sw.DesignMatrix(
        np.column_stack([np.ones(int(mask.sum())), pop.z2[mask],
                         pop.w[mask], pop.d[mask]]),
        ["intercept", "z2", "w", "d"])
    model = sw.fit_simplex_regression(design, pop.pi_ext[mask])
    pred = model.probabilities(design)
    corr = np.corrcoef(pred, pop.pi_ext[mask])[0, 1]
    assert corr > 0.97


def test_boundary_response_rejected():
    design = sw.DesignMatrix(np.ones((3, 1)), ["intercept"])
    with pytest.raises(sw.ResponseOnBoundaryError):
        sw.fit_simplex_regression(design, np.array([0.5, 1.0, 0.25]))


def test_simplex_dispersion_is_mean_unit_deviance():
    rng = np.random.default_rng(8)
    x = np.column_stack([np.ones(300), rng.normal(size=300)])
    y = np.clip(rng.beta(2.0, 3.0, size=300), 1e-3, 1 - 1e-3)
    design = sw.DesignMatrix(x, ["intercept", "x"])
    model = sw.fit_simplex_regression(design, y)
    mu = model.probabilities(design)
    assert model.dispersion == pytest.approx(
        float(np.mean(simplex_unit_deviance(y, mu))), rel=1e-12)


# ---------------------------------------------------------------------------
# design matrix plumbing


def test_design_matrix_validation():
    with pytest.raises(sw.ValidationError):
        sw.DesignMatrix(np.array([[1.0, np.nan]]), ["intercept", "x"])
    with pytest.raises(sw.ValidationError):
        sw.DesignMatrix(np.array([[2.0, 1.0]]), ["intercept", "x"],
                        has_intercept=True)
    design = sw.build_design([np.array([1.0, 2.0])], ["x"])
    assert design.column_names == ["intercept", "x"]
    assert design.matrix.shape == (2, 2)
    with pytest.raises(sw.ValidationError, match="at least one"):
        sw.build_design([])
    with pytest.raises(sw.ValidationError, match="unequal lengths"):
        sw.build_design([[1.0, 2.0], [1.0]])


@pytest.mark.parametrize("columns", [
    [np.array([0.5, -0.0, 1e-320, np.pi]), np.array([2.0, 3.0, -1.0, 1e308])],
    [np.array([3, -7, 0, 2**53 + 1]), np.array([1, 2, 3, 4], dtype=np.int8)],
    [[0.25, 1, True, -2.5]],
], ids=["float", "integer", "list"])
def test_build_design_matches_column_stack(columns):
    design = sw.build_design(columns)
    n = len(columns[0])
    expected = np.column_stack([np.ones(n), *columns]).astype(float)
    assert design.matrix.tobytes() == expected.tobytes()
    assert design.column_names == ["intercept",
                                   *(f"x{j + 1}" for j in range(len(columns)))]


# ---------------------------------------------------------------------------
# probability kernels, bit for bit against the forms they replaced


def reference_expit(x):
    """The two-branch inverse logit, kept as the bit-for-bit reference."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def reference_multinomial_probabilities(coef, x):
    """The zero-column-stack softmax, kept as the bit-for-bit reference."""
    eta = np.column_stack([np.zeros(x.shape[0]), x @ coef.T])
    eta -= eta.max(axis=1, keepdims=True)
    num = np.exp(eta)
    return num / num.sum(axis=1, keepdims=True)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Signed zeros, infinities, NaNs of both signs, the ends of exp's range, and
# inputs whose probabilities are subnormal (-709 .. -745) or underflow to 0.
EXPIT_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                  746.0, -746.0, 709.78, -709.78, -710.0, -720.5, -740.0,
                  -744.4, 36.7, 37.0, -36.7, 5e-324, -5e-324, 1e308, -1e308]


def test_expit_special_values_match_two_branch_form():
    x = np.array(EXPIT_SPECIALS)
    expected = reference_expit(x)
    assert np.any((expected > 0.0) & (expected < np.finfo(float).tiny))
    assert same_bits(sw.expit(x), expected)
    assert same_bits(sw.expit(x.reshape(-1, 1)), expected.reshape(-1, 1))
    for value in EXPIT_SPECIALS:
        got = sw.expit(value)
        assert type(got) is float
        assert same_bits(got, reference_expit(value))


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(0, 60),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_expit_matches_two_branch_form_bit_for_bit(x):
    assert same_bits(sw.expit(x), reference_expit(x))


@settings(max_examples=200, deadline=None)
@given(st.floats())
def test_expit_scalar_matches_two_branch_form(value):
    got = sw.expit(value)
    assert type(got) is float
    assert same_bits(got, reference_expit(value))


def check_expit_out(x):
    expected = reference_expit(x)
    buf = np.full_like(x, 0.5)
    assert sw.expit(x, out=buf) is buf
    assert same_bits(buf, expected)
    aliased = x.copy()
    assert sw.expit(aliased, out=aliased) is aliased
    assert same_bits(aliased, expected)


def test_expit_out_matches_two_branch_form_on_specials():
    check_expit_out(np.array(EXPIT_SPECIALS))


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.integers(0, 60), elements=st.floats()))
def test_expit_out_matches_two_branch_form_bit_for_bit(x):
    check_expit_out(x)


@st.composite
def multinomial_cases(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    coef = draw(arrays(float, (k, p), elements=st.floats(-30.0, 30.0)))
    x = draw(arrays(float, (draw(st.integers(1, 25)), p),
                    elements=st.floats(-5.0, 5.0)))
    if draw(st.booleans()):
        # One row per category that drives its linear predictor to the top.
        x = np.vstack([x, 5.0 * np.sign(coef)])
    return coef, x


@settings(max_examples=200, deadline=None)
@given(multinomial_cases())
def test_multinomial_probabilities_match_column_stack_form(case):
    coef, x = case
    assert same_bits(sw.multinomial_probabilities(coef, x),
                     reference_multinomial_probabilities(coef, x))


def previous_multinomial_probabilities(coef, x):
    """The running-maximum softmax that broadcast its shift and its division
    across each row, kept as the bit-for-bit reference."""
    lin = x @ coef.T
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


@settings(max_examples=200, deadline=None)
@given(multinomial_cases(), st.sampled_from([1.0, 20.0, 1e-300]))
def test_multinomial_probabilities_match_row_broadcast_form(case, scale):
    coef, x = case
    coef = coef * scale
    assert same_bits(sw.multinomial_probabilities(coef, x),
                     previous_multinomial_probabilities(coef, x))


# ---------------------------------------------------------------------------
# weighted cross-products, bit for bit against the broadcast form


def reference_weighted_cross(a, v, b):
    """The broadcast form every Jacobian and sandwich block was written in."""
    return (a.T * v) @ b


# Signed zeros, a negative and a repeated value among ordinary magnitudes.
CROSS_VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 2.5]),
                         st.floats(-1e3, 1e3))


def layout(a, kind):
    """``a`` itself, in F order, or as a strided view of a larger array."""
    if kind == "F":
        return np.asfortranarray(a)
    if kind == "rows":
        wide = np.zeros((2 * a.shape[0], a.shape[1]))
        wide[::2] = a
        return wide[::2]
    if kind == "columns":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return wide[:, ::2]
    return a


@st.composite
def cross_cases(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 5))
    a = layout(draw(arrays(float, (n, p), elements=CROSS_VALUES)),
               draw(st.sampled_from(["C", "F", "rows", "columns"])))
    v = draw(arrays(float, n, elements=CROSS_VALUES))
    if draw(st.booleans()):
        b = a  # the Jacobians and most sandwich blocks
    else:
        b = draw(arrays(float, (n, draw(st.integers(1, 4))),
                        elements=CROSS_VALUES))
    return a, v, b


@settings(max_examples=300, deadline=None)
@given(cross_cases(), st.integers(1, 12))
def test_weighted_cross_matches_broadcast_form(case, block):
    a, v, b = case
    with pytest.MonkeyPatch.context() as patch:
        # Small blocks, so short inputs span several of them.
        patch.setattr(fitters, "CROSS_BLOCK_ELEMENTS", block)
        assert same_bits(fitters.weighted_cross(a, v, b),
                         reference_weighted_cross(a, v, b))
        assert same_bits(fitters.weighted_cross(a, -v, b),
                         -(a.T * v) @ b)
    assert same_bits(fitters.weighted_cross(a, v, b),
                     reference_weighted_cross(a, v, b))


@pytest.mark.parametrize("n, p", [(38_411, 4), (18_377, 3), (20_000, 1)])
def test_weighted_cross_matches_broadcast_form_at_design_sizes(n, p):
    # Sizes of the benchmark designs: many blocks, and a ragged last one.
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, p))
    v = rng.normal(size=n)
    v[::7] = 0.0
    v[::11] = -0.0
    b = rng.normal(size=(n, 3))
    for other in (a, b):
        assert same_bits(fitters.weighted_cross(a, v, other),
                         reference_weighted_cross(a, v, other))
        assert same_bits(fitters.weighted_cross(a, -v, other),
                         -(a.T * v) @ other)


# ---------------------------------------------------------------------------
# one probability evaluation per Newton trial point


@pytest.fixture(scope="module")
def newton_source():
    cfg = sw.SimulationConfig(dag=3, setup=2, seed=0, n_population=4000)
    return sw.simulation.PopulationSource(sw.generate_population(cfg, 0))


def _multinomial(src):
    x_ext = src.external_sample[0].matrix
    internal_in_external, external_in_internal = src.overlap()
    labels = np.concatenate([
        np.where(internal_in_external, w_mod.BOTH_SAMPLES, w_mod.INTERNAL_ONLY),
        np.where(external_in_internal, w_mod.BOTH_SAMPLES, w_mod.EXTERNAL_ONLY)])
    return sw.fit_multinomial(np.vstack([src.selection_design.matrix, x_ext]),
                              labels)


# user -> (module and name of its probability kernel, the fit, evaluations
# outside the solves).  PL and CL evaluate pi_hat once more at the internal
# rows after their solve, and the simplex fit its mean at the solution, for
# the dispersion.
NEWTON_USERS = {
    "logistic": (fitters, "expit", lambda src: sw.fit_weighted_logistic(
        src.disease_design, src.outcome, src.population.pi_true[src.internal]), 0),
    "multinomial": (fitters, "category_probabilities", _multinomial, 0),
    "simplex": (fitters, "expit",
                lambda src: sw.fit_simplex_regression(*src.external_sample), 1),
    "pl": (w_mod, "expit", lambda src: sw.estimate_weights_pl(
        src.selection_design, *src.external_sample), 1),
    "cl": (w_mod, "expit", lambda src: sw.estimate_weights_cl(
        src.selection_design, src.calibration_summary()), 1),
}


def record_solves(monkeypatch):
    """Record (score, report) of every solve the fitters run."""
    solves = []

    def solve(score, init):
        report = solve_estimating_equation(score, init)
        solves.append((score, report))
        return report

    # Every fit, PL's and CL's included, solves through fitters.solve_fit.
    monkeypatch.setattr(fitters, "solve_estimating_equation", solve)
    return solves


@pytest.mark.parametrize("user", NEWTON_USERS)
def test_one_probability_evaluation_per_trial_point(monkeypatch, newton_source,
                                                    user):
    module, name, fit, outside = NEWTON_USERS[user]
    kernel = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    solves = record_solves(monkeypatch)
    fit(newton_source)
    reports = [report for _, report in solves]
    assert all(report.converged for report in reports)
    # Each solve evaluates its start and every trial step, accepted or
    # halved; a Jacobian reuses its point's evaluation.  The simplex fit's
    # second stage evaluates its start, the first stage's solution, again.
    trial_points = len(reports) + sum(r.iterations + r.halvings
                                      for r in reports)
    assert len(calls) == trial_points + outside
    if user == "cl":
        assert sum(r.halvings for r in reports) > 0


@pytest.mark.parametrize("user", NEWTON_USERS)
def test_score_jacobian_matches_finite_differences(monkeypatch, newton_source,
                                                   user):
    _, _, fit, _ = NEWTON_USERS[user]
    solves = record_solves(monkeypatch)
    fit(newton_source)
    assert solves
    for score, report in solves:
        point = report.solution.copy()
        residual, jacobian = score(point)
        assert np.max(np.abs(residual)) == report.final_residual_norm
        fd = finite_difference_jacobian(lambda t: score(t)[0], report.solution)
        # The caller reuses its array in place and evaluates the score there
        # before forming the Jacobian, which must still be the solution's.
        point += 0.1
        score(point)
        analytic = jacobian()
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic))
