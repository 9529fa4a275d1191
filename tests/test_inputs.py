"""Every public function reads each kind of input one way.

A bare 2-d array is validated as a design without an asserted intercept,
its columns named x0, x1, ..., and copied to C order.  So a NaN in it is a
ValidationError, and a C-ordered array, its F-ordered copy and the
DesignMatrix it becomes give the same bytes.  A per-row vector is
flattened and needs one entry per design row; given coefficients must fit
their design and be finite.  These checks run once, where a public call
enters, and never in a Newton trial.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

import selweight as sw
from selweight import fitters, variance
from selweight import weights as w_mod
from selweight.fitters import coerce_design
from selweight.variance import cl_components, known_weights_components, pl_components

N_INT, N_EXT, N_POP = 120, 150, 600


def _inputs():
    rng = np.random.default_rng(20)

    def design(n):
        return np.column_stack([np.ones(n), rng.normal(size=n),
                                rng.normal(size=n)])

    z, xi, xe = design(N_INT), design(N_INT), design(N_EXT)
    d = (rng.random(N_INT) < sw.expit(z @ [-0.3, 0.8, -0.5])).astype(float)
    in_ext = np.zeros(N_INT, dtype=bool)
    in_ext[:20] = True
    in_int = np.zeros(N_EXT, dtype=bool)
    in_int[:20] = True
    pi = rng.uniform(0.2, 0.9, N_INT)
    return {
        "z": z, "xi": xi, "xe": xe, "d": d, "pi": pi, "w": 1.0 / pi,
        "pi_ext": rng.uniform(0.2, 0.9, N_EXT),
        "internal_pi_ext": rng.uniform(0.2, 0.9, N_INT),
        "in_ext": in_ext, "in_int": in_int,
        "category": np.arange(N_INT) % 3,
        "response": rng.uniform(0.1, 0.9, N_EXT),
        "theta": np.array([-0.3, 0.8, -0.5]),
        "alpha": np.array([-1.2, 0.3, 0.2]),
        "beta": np.array([[0.2, -0.1, 0.3], [-0.4, 0.5, 0.1]]),
        "vcov": np.diag([0.04, 0.01, 0.02]),
        "n_pop": N_POP,
    }


INPUTS = _inputs()


def _dm(x):
    """The DesignMatrix a bare array becomes."""
    return sw.DesignMatrix(x, ["x0", "x1", "x2"], has_intercept=False)


def _logistic(x):
    return sw.fit_weighted_logistic(x, INPUTS["d"], INPUTS["pi"]).coefficients


def _multinomial_model():
    return sw.fit_multinomial(_dm(INPUTS["z"]), INPUTS["category"])


def _cl_summary():
    xi = INPUTS["xi"]
    means = xi.mean(axis=0) + [0.0, 0.05, -0.05]
    return sw.PopulationSummary("marginal_means", means=means,
                                names=["x0", "x1", "x2"], population_size=N_POP)


def _vcov_pl(z, xi, xe):
    i = INPUTS
    return sw.vcov_pl(i["theta"], i["alpha"], z, i["d"], xi, xe, i["pi_ext"],
                      N_POP, i["in_ext"], i["internal_pi_ext"])


# name -> (the C-ordered bare design, a call of the function on it).  Every
# other design argument is the DesignMatrix of its own array.
CASES = {
    "fit_weighted_logistic": ("z", _logistic),
    "fit_multinomial": ("z", lambda x: sw.fit_multinomial(
        x, INPUTS["category"]).coefficients),
    "fit_simplex_regression": ("xe", lambda x: sw.fit_simplex_regression(
        x, INPUTS["response"]).coefficients),
    "multinomial_probabilities": ("z", lambda x: sw.multinomial_probabilities(
        _multinomial_model().coefficients, x)),
    "linear_predictor": ("z", lambda x: sw.fit_weighted_logistic(
        _dm(INPUTS["z"]), INPUTS["d"]).linear_predictor(x)),
    "probabilities": ("z", lambda x: _multinomial_model().probabilities(x)),
    "estimate_weights_pl[internal]": ("xi", lambda x: sw.estimate_weights_pl(
        x, _dm(INPUTS["xe"]), INPUTS["pi_ext"]).pi_hat),
    "estimate_weights_pl[external]": ("xe", lambda x: sw.estimate_weights_pl(
        _dm(INPUTS["xi"]), x, INPUTS["pi_ext"]).pi_hat),
    "estimate_weights_sr[internal]": ("xi", lambda x: sw.estimate_weights_sr(
        x, _dm(INPUTS["xe"]), INPUTS["pi_ext"], INPUTS["in_ext"],
        INPUTS["in_int"]).pi_hat),
    "estimate_weights_sr[external]": ("xe", lambda x: sw.estimate_weights_sr(
        _dm(INPUTS["xi"]), x, INPUTS["pi_ext"], INPUTS["in_ext"],
        INPUTS["in_int"]).pi_hat),
    "estimate_weights_cl": ("xi", lambda x: sw.estimate_weights_cl(
        x, _cl_summary()).pi_hat),
    "vcov_known_weights": ("z", lambda x: sw.vcov_known_weights(
        INPUTS["theta"], x, INPUTS["d"], INPUTS["pi"], N_POP)),
    "known_weights_components": ("z", lambda x: known_weights_components(
        INPUTS["theta"], x, INPUTS["d"], INPUTS["pi"], N_POP).e_hat),
    "vcov_pl[design]": ("z", lambda x: _vcov_pl(
        x, _dm(INPUTS["xi"]), _dm(INPUTS["xe"]))),
    "vcov_pl[selection_design]": ("xi", lambda x: _vcov_pl(
        _dm(INPUTS["z"]), x, _dm(INPUTS["xe"]))),
    "vcov_pl[external_design]": ("xe", lambda x: _vcov_pl(
        _dm(INPUTS["z"]), _dm(INPUTS["xi"]), x)),
    "pl_components": ("z", lambda x: pl_components(
        INPUTS["theta"], INPUTS["alpha"], x, INPUTS["d"], _dm(INPUTS["xi"]),
        _dm(INPUTS["xe"]), INPUTS["pi_ext"], N_POP, INPUTS["in_ext"],
        INPUTS["internal_pi_ext"]).e_hat),
    "vcov_cl[design]": ("z", lambda x: sw.vcov_cl(
        INPUTS["theta"], INPUTS["alpha"], x, INPUTS["d"], _dm(INPUTS["xi"]),
        N_POP)),
    "vcov_cl[selection_design]": ("xi", lambda x: sw.vcov_cl(
        INPUTS["theta"], INPUTS["alpha"], _dm(INPUTS["z"]), INPUTS["d"], x,
        N_POP)),
    "cl_components": ("xi", lambda x: cl_components(
        INPUTS["theta"], INPUTS["alpha"], _dm(INPUTS["z"]), INPUTS["d"], x,
        N_POP).e_hat),
}


@pytest.mark.parametrize("case", CASES)
def test_memory_order_of_a_bare_design_does_not_change_the_bytes(case):
    key, call = CASES[case]
    c_ordered = INPUTS[key]
    assert c_ordered.flags.c_contiguous
    f_ordered = np.asfortranarray(c_ordered)
    expected = np.asarray(call(_dm(c_ordered))).tobytes()
    assert np.asarray(call(c_ordered)).tobytes() == expected
    assert np.asarray(call(f_ordered)).tobytes() == expected


@pytest.mark.parametrize("case", CASES)
def test_nan_in_a_bare_design_is_a_validation_error(case):
    key, call = CASES[case]
    x = INPUTS[key].copy()
    x[5, 1] = np.nan
    with pytest.raises(sw.ValidationError, match="non-finite"):
        call(x)


# The fits take their width from the design.  In every other case another
# input fixes it: fitted or given coefficients, the other sample's design or
# the summary's means.
FITS = ("fit_weighted_logistic", "fit_multinomial", "fit_simplex_regression")


@pytest.mark.parametrize("case", [case for case in CASES if case not in FITS])
def test_a_design_of_the_wrong_width_is_a_validation_error(case):
    key, call = CASES[case]
    x = INPUTS[key]
    wide = np.column_stack([x, np.linspace(-1.0, 1.0, x.shape[0])])
    with pytest.raises(sw.ValidationError):
        call(wide)


def test_a_design_matrix_passes_through_and_a_bare_array_is_named():
    design = sw.build_design([[0.5, 1.5, 2.5]], ["a"])
    assert coerce_design(design) is design
    bare = coerce_design(np.asfortranarray(design.matrix))
    assert bare.column_names == ["x0", "x1"] and not bare.has_intercept
    assert bare.matrix.flags.c_contiguous
    with pytest.raises(sw.ValidationError, match="2-d"):
        coerce_design(np.ones(3))


def test_fitted_column_names_are_the_models_own_list():
    design = _dm(INPUTS["z"])
    model = sw.fit_weighted_logistic(design, INPUTS["d"])
    assert model.column_names == design.column_names
    assert model.column_names is not design.column_names


# ---------------------------------------------------------------------------
# argument roles: per-row vectors, coefficients and population sizes


def _linear_predictor(coefficients, design):
    return sw.FittedModel(coefficients, None, "logistic").linear_predictor(design)


def _weights(estimate):
    return lambda **args: estimate(**args).pi_hat


def _coefficients(fit):
    return lambda **args: fit(**args).coefficients


# name -> (a public call returning an array, its valid keyword arguments as
# INPUTS keys).
CALLS = {
    "fit_weighted_logistic": (_coefficients(sw.fit_weighted_logistic),
                              dict(design="z", outcome="d", pi="pi")),
    "fit_multinomial": (_coefficients(sw.fit_multinomial),
                        dict(design="z", category="category")),
    "fit_simplex_regression": (_coefficients(sw.fit_simplex_regression),
                               dict(design="xe", response="response")),
    "multinomial_probabilities": (sw.multinomial_probabilities,
                                  dict(coef="beta", design="z")),
    "linear_predictor": (_linear_predictor,
                         dict(coefficients="theta", design="z")),
    "estimate_weights_pl": (_weights(sw.estimate_weights_pl),
                            dict(internal_X="xi", external_X="xe",
                                 pi_ext="pi_ext")),
    "estimate_weights_sr": (_weights(sw.estimate_weights_sr),
                            dict(internal_X="xi", external_X="xe",
                                 pi_ext="pi_ext", internal_in_external="in_ext",
                                 external_in_internal="in_int")),
    "augment_weights_with_outcome": (sw.augment_weights_with_outcome,
                                     dict(w0="w", outcome="d", p_pop="pi",
                                          p_int="internal_pi_ext")),
    "vcov_known_weights": (sw.vcov_known_weights,
                           dict(theta_hat="theta", design="z", outcome="d",
                                pi="pi", n_population="n_pop")),
    "vcov_pl": (sw.vcov_pl,
                dict(theta_hat="theta", alpha_hat="alpha", design="z",
                     outcome="d", selection_design="xi", external_design="xe",
                     pi_ext="pi_ext", n_population="n_pop",
                     internal_in_external="in_ext",
                     internal_pi_ext="internal_pi_ext")),
    "vcov_cl": (sw.vcov_cl,
                dict(theta_hat="theta", alpha_hat="alpha", design="z",
                     outcome="d", selection_design="xi", n_population="n_pop")),
    "wald_ci": (sw.wald_ci, dict(theta_hat="theta", vcov="vcov")),
}

# The argument-role table: (call, argument) -> the argument's role.  A
# per-row vector is flattened and needs one entry per design row; a
# coefficient array must fit its design and be finite; a population size
# must be a positive finite number.
ROLES = {
    ("fit_weighted_logistic", "outcome"): "per-row",
    ("fit_weighted_logistic", "pi"): "per-row",
    ("fit_multinomial", "category"): "per-row",
    ("fit_simplex_regression", "response"): "per-row",
    ("estimate_weights_pl", "pi_ext"): "per-row",
    ("estimate_weights_sr", "pi_ext"): "per-row",
    ("estimate_weights_sr", "internal_in_external"): "per-row",
    ("estimate_weights_sr", "external_in_internal"): "per-row",
    ("augment_weights_with_outcome", "outcome"): "per-row",
    ("augment_weights_with_outcome", "p_pop"): "per-row",
    ("augment_weights_with_outcome", "p_int"): "per-row",
    ("vcov_known_weights", "outcome"): "per-row",
    ("vcov_known_weights", "pi"): "per-row",
    ("vcov_pl", "outcome"): "per-row",
    ("vcov_pl", "pi_ext"): "per-row",
    ("vcov_pl", "internal_in_external"): "per-row",
    ("vcov_pl", "internal_pi_ext"): "per-row",
    ("vcov_cl", "outcome"): "per-row",
    ("multinomial_probabilities", "coef"): "coefficients",
    ("linear_predictor", "coefficients"): "coefficients",
    ("vcov_known_weights", "theta_hat"): "coefficients",
    ("vcov_pl", "theta_hat"): "coefficients",
    ("vcov_pl", "alpha_hat"): "coefficients",
    ("vcov_cl", "theta_hat"): "coefficients",
    ("vcov_cl", "alpha_hat"): "coefficients",
    ("wald_ci", "theta_hat"): "coefficients",
    ("vcov_known_weights", "n_population"): "population size",
    ("vcov_pl", "n_population"): "population size",
    ("vcov_cl", "n_population"): "population size",
}


def _cases(role):
    return [pytest.param(name, argument, id=f"{name}[{argument}]")
            for (name, argument), r in ROLES.items() if r == role]


def _call(name, argument, value=None):
    """Run ``name`` on the valid inputs, with ``argument`` replaced by
    ``value`` unless it is None; return the argument's valid value and the
    result."""
    call, keys = CALLS[name]
    args = {key: INPUTS[source] for key, source in keys.items()}
    valid = args[argument]
    if value is not None:
        args[argument] = value
    return valid, call(**args)


@pytest.mark.parametrize("name, argument", _cases("per-row"))
def test_a_per_row_vector_of_the_wrong_length_is_a_validation_error(
        name, argument):
    valid, _ = _call(name, argument)
    for wrong in (valid[:-1], np.concatenate([valid, valid[:1]])):
        with pytest.raises(sw.ValidationError,
                           match=r" have \d+ entries for \d+ design rows$"):
            _call(name, argument, wrong)


@pytest.mark.parametrize("name, argument", _cases("per-row"))
def test_a_per_row_column_gives_the_bytes_of_its_flat_form(name, argument):
    # Among them an (n, 1) category array.
    valid, flat = _call(name, argument)
    assert valid.ndim == 1
    _, column = _call(name, argument, valid.reshape(-1, 1))
    assert np.asarray(column).tobytes() == np.asarray(flat).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, argument", _cases("coefficients"))
def test_a_non_finite_coefficient_is_a_validation_error(name, argument, bad):
    valid, _ = _call(name, argument)
    coefficients = np.array(valid, dtype=float)
    coefficients.flat[1] = bad
    with pytest.raises(sw.ValidationError, match="must be finite$"):
        _call(name, argument, coefficients)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0, -600.0, "600", True])
@pytest.mark.parametrize("name, argument", _cases("population size"))
def test_a_population_size_must_be_a_positive_finite_number(name, argument,
                                                             bad):
    with pytest.raises(sw.ValidationError,
                       match="^n_population must be a positive finite number"):
        _call(name, argument, bad)


SUMMARIES = {
    "joint_cells": {"levels": np.array([[0], [1]]),
                    "probabilities": [0.5, 0.5]},
    "marginal_means": {"means": [0.1], "names": ["x1"]},
}


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0, -3, "12", True])
@pytest.mark.parametrize("kind", SUMMARIES)
def test_a_summary_population_size_must_be_a_positive_finite_number(kind,
                                                                     bad):
    assert sw.PopulationSummary(kind, population_size=12,
                                **SUMMARIES[kind]).population_size == 12
    with pytest.raises(sw.ValidationError, match="^population_size must be "
                       "a positive finite number, got "):
        sw.PopulationSummary(kind, population_size=bad, **SUMMARIES[kind])


@pytest.mark.parametrize("kind", SUMMARIES)
def test_a_summary_is_changed_only_through_its_checks(kind):
    summary = sw.PopulationSummary(kind, population_size=12,
                                   warnings=["note"], **SUMMARIES[kind])
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.population_size = np.inf
    assert summary.population_size == 12
    changed = dataclasses.replace(summary, population_size=20)
    assert (changed.population_size, changed.warnings) == (20, ["note"])
    with pytest.raises(sw.ValidationError, match="^population_size must be "
                       "a positive finite number, got inf$"):
        dataclasses.replace(summary, population_size=np.inf)


def _count_coefficient_checks(monkeypatch):
    """Record the ``what`` of every coefficients_for call, in any module."""
    checks = []
    original = fitters.coefficients_for

    def counted(x, coef, what, ndim=1):
        checks.append(what)
        return original(x, coef, what, ndim)

    for module in (fitters, w_mod, variance):
        monkeypatch.setattr(module, "coefficients_for", counted, raising=False)
    return checks


def test_no_newton_trial_checks_coefficients(monkeypatch):
    checks = _count_coefficient_checks(monkeypatch)
    cl = sw.estimate_weights_cl(INPUTS["xi"], _cl_summary())
    sr = sw.estimate_weights_sr(INPUTS["xi"], INPUTS["xe"], INPUTS["pi_ext"],
                                INPUTS["in_ext"], INPUTS["in_int"])
    assert cl.diagnostics["iterations"] > 0 and sr.diagnostics["iterations"] > 0
    assert checks == []


@pytest.mark.parametrize("name, expected", [
    ("vcov_known_weights", ["theta_hat"]),
    ("vcov_pl", ["alpha_hat", "alpha_hat", "theta_hat"]),
    ("vcov_cl", ["alpha_hat", "theta_hat"]),
])
def test_each_sandwich_checks_its_coefficients_once_per_design(
        monkeypatch, name, expected):
    checks = _count_coefficient_checks(monkeypatch)
    _call(name, "theta_hat")
    assert checks == expected


@pytest.mark.parametrize("vcov", [[[np.nan]], [[np.inf]]])
def test_wald_ci_rejects_a_non_finite_variance(vcov):
    with pytest.raises(sw.ValidationError,
                       match="^theta_hat and the vcov diagonal must be finite$"):
        sw.wald_ci([0.5], vcov)


# Inputs of a wrong type or shape that no role above covers: name -> (a call
# on them, the start of its ValidationError message).
MALFORMED = {
    "wald_ci[1-d vcov]": (
        lambda: sw.wald_ci(INPUTS["theta"], np.diag(INPUTS["vcov"])),
        r"vcov has shape \(3,\), not \(3, 3\)$"),
    "wald_ci[text in theta_hat]": (
        lambda: sw.wald_ci(["a", 0.8, -0.5], INPUTS["vcov"]),
        "theta_hat must be numbers$"),
    "wald_ci[text in vcov]": (
        lambda: sw.wald_ci(INPUTS["theta"], [["a"] * 3] * 3),
        "vcov must be numbers$"),
    "fit_weighted_logistic[text in pi]": (
        lambda: sw.fit_weighted_logistic(INPUTS["z"], INPUTS["d"],
                                         ["a"] * N_INT),
        "selection probabilities must be numbers$"),
    "fit_weighted_logistic[text in outcome]": (
        lambda: sw.fit_weighted_logistic(INPUTS["z"], ["a"] * N_INT),
        "outcomes must be numbers$"),
    "fit_weighted_logistic[text in a bare design]": (
        lambda: sw.fit_weighted_logistic([["1", "a"]] * N_INT, INPUTS["d"]),
        "design entries must be numbers$"),
    "DesignMatrix[text entries]": (
        lambda: sw.DesignMatrix([["a"]], ["x"]),
        "design matrix entries must be numbers$"),
    "DesignMatrix[no column names]": (
        lambda: sw.DesignMatrix(INPUTS["z"], None),
        "column_names must be a list of names$"),
    "build_design[text column]": (
        lambda: sw.build_design([["a", "b"]]),
        "design columns must be numbers$"),
    "vcov_known_weights[text in theta_hat]": (
        lambda: sw.vcov_known_weights(["a", 0.8, -0.5], INPUTS["z"],
                                      INPUTS["d"], INPUTS["pi"], N_POP),
        "theta_hat must be numbers$"),
    "coarsen[text values]": (
        lambda: sw.coarsen(["a", 1.0]), "values to coarsen must be numbers$"),
    "coarsen[text cutoffs]": (
        lambda: sw.coarsen([1.0, 2.0], ["a"]), "cutoffs must be numbers$"),
    "normal_quantile[text]": (
        lambda: sw.normal_quantile("a"), "probabilities must be numbers$"),
    "winsorize_weights[text level]": (
        lambda: sw.winsorize_weights(INPUTS["w"], "a", 0.9),
        "quantile levels must be real numbers$"),
    "winsorize_weights[None level]": (
        lambda: sw.winsorize_weights(INPUTS["w"], None, 0.9),
        "quantile levels must be real numbers$"),
    "winsorize_weights[bool level]": (
        lambda: sw.winsorize_weights(INPUTS["w"], False, 0.9),
        "quantile levels must be real numbers$"),
    "PopulationSummary[text in means]": (
        lambda: sw.PopulationSummary("marginal_means", means=["a"],
                                     names=["x1"], population_size=N_POP),
        "marginal means must be numbers$"),
    "PopulationSummary[text in probabilities]": (
        lambda: sw.PopulationSummary("joint_cells", levels=[[0]],
                                     probabilities=["a"]),
        "cell probabilities must be numbers$"),
    "winsorize_weights[2-d]": (
        lambda: sw.winsorize_weights(np.ones((4, 2))),
        r"weights to winsorize must be one-dimensional, got shape \(4, 2\)$"),
    "fit_weighted_logistic[no columns]": (
        lambda: sw.fit_weighted_logistic(np.empty((N_INT, 0)), INPUTS["d"]),
        "design matrix has no columns$"),
    "estimate_weights_pl[empty external sample]": (
        lambda: sw.estimate_weights_pl(INPUTS["xi"], INPUTS["xe"][:0],
                                       INPUTS["pi_ext"][:0]),
        "the external sample has no rows$"),
    "estimate_weights_pl[empty internal sample]": (
        lambda: sw.estimate_weights_pl(INPUTS["xi"][:0], INPUTS["xe"],
                                       INPUTS["pi_ext"]),
        "the internal sample has no rows$"),
    "estimate_weights_sr[empty internal sample]": (
        lambda: sw.estimate_weights_sr(INPUTS["xi"][:0], INPUTS["xe"],
                                       INPUTS["pi_ext"], INPUTS["in_ext"][:0],
                                       np.zeros(N_EXT, dtype=bool)),
        "the internal sample has no rows$"),
    "estimate_weights_cl[empty internal sample]": (
        lambda: sw.estimate_weights_cl(INPUTS["xi"][:0], _cl_summary()),
        "the internal sample has no rows$"),
}


# An overlap mask holds bools or numbers equal to 0 or 1, never a value read
# by its truth.  call[mask] -> (the valid mask's INPUTS key, a call on the
# mask), and each other way of writing the flags.
MASK_CALLS = {
    "estimate_weights_sr[internal_in_external]": ("in_ext", lambda m: (
        sw.estimate_weights_sr(INPUTS["xi"], INPUTS["xe"], INPUTS["pi_ext"],
                               m, INPUTS["in_int"]))),
    "estimate_weights_sr[external_in_internal]": ("in_int", lambda m: (
        sw.estimate_weights_sr(INPUTS["xi"], INPUTS["xe"], INPUTS["pi_ext"],
                               INPUTS["in_ext"], m))),
    "vcov_pl[internal_in_external]": ("in_ext", lambda m: sw.vcov_pl(
        INPUTS["theta"], INPUTS["alpha"], INPUTS["z"], INPUTS["d"],
        INPUTS["xi"], INPUTS["xe"], INPUTS["pi_ext"], N_POP, m,
        INPUTS["internal_pi_ext"])),
}
MASK_FORMS = {
    "yes/no text": lambda m: np.where(m, "yes", "no"),
    "0/1 text": lambda m: np.where(m, "1", "0"),
    "0.5 for a flag": lambda m: np.where(m, 0.5, 0.0),
    "2.0 for a flag": lambda m: np.where(m, 2.0, 0.0),
}
MALFORMED.update({
    f"{name[:-1]} as {form}]": (
        partial(call, rewrite(INPUTS[key])),
        f"{name.split('[')[1][:-1]} must be bools or numbers equal to 0 or 1$")
    for name, (key, call) in MASK_CALLS.items()
    for form, rewrite in MASK_FORMS.items()})


@pytest.mark.parametrize("name", MASK_CALLS)
def test_an_overlap_mask_of_0_1_numbers_gives_the_bytes_of_its_bools(name):
    key, call = MASK_CALLS[name]

    def result_bytes(mask):
        result = call(mask)
        return getattr(result, "pi_hat", result).tobytes()

    flags = INPUTS[key]
    for numbers in (flags.astype(float), flags.astype(np.int8), flags.tolist()):
        assert result_bytes(numbers) == result_bytes(flags)


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_input_is_a_validation_error(case):
    call, message = MALFORMED[case]
    with pytest.raises(sw.ValidationError, match=f"^{message}"):
        call()


def test_augmentation_rejects_an_infinite_weight():
    with pytest.raises(sw.ValidationError,
                       match="^weights must be positive and finite$"):
        sw.augment_weights_with_outcome([np.inf, 2.0], [1.0, 0.0],
                                        [0.3, 0.6], [0.4, 0.5])


def test_winsorizing_rejects_an_infinite_weight():
    with pytest.raises(sw.ValidationError,
                       match="^weights must be positive and finite$"):
        sw.winsorize_weights([np.inf, 1.0, 2.0], 0, 1)
