"""Every public function that takes a design reads it one way.

A bare 2-d array is validated as a design without an asserted intercept,
its columns named x0, x1, ..., and copied to C order.  So a NaN in it is a
ValidationError, and a C-ordered array, its F-ordered copy and the
DesignMatrix it becomes give the same bytes.
"""

import numpy as np
import pytest

import selweight as sw
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
    return {
        "z": z, "xi": xi, "xe": xe, "d": d,
        "pi": rng.uniform(0.2, 0.9, N_INT),
        "pi_ext": rng.uniform(0.2, 0.9, N_EXT),
        "internal_pi_ext": rng.uniform(0.2, 0.9, N_INT),
        "in_ext": in_ext, "in_int": in_int,
        "category": np.arange(N_INT) % 3,
        "response": rng.uniform(0.1, 0.9, N_EXT),
        "theta": np.array([-0.3, 0.8, -0.5]),
        "alpha": np.array([-1.2, 0.3, 0.2]),
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
                                population_size=N_POP)


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
