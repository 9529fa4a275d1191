"""Estimators and sandwiches under replication of the data and under a
change of coordinates.

Stacking every population row twice stacks the internal and the external
sample twice, with their overlap masks and design probabilities, and
doubles N.  Every estimating equation is a mean over N, so it keeps its
roots: theta-hat and alpha-hat stay put.  Every sandwich is its blocks,
which are such means too, divided by N, so it halves (Stefanski & Boos
2002).  A sandwich taken at linearly transformed designs and parameters is
the transformed sandwich.
"""

import dataclasses

import numpy as np
import pytest

import selweight as sw
from selweight.simulation import METHOD_TABLE, PopulationSource, fit_method

BOUND = 1e-10


def _relative_error(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


@pytest.fixture(scope="module")
def sources():
    """(the source of one population, the source of it stacked twice)."""
    cfg = sw.SimulationConfig(dag=3, setup=1, n_population=20_000, seed=5)
    pop = sw.generate_population(cfg, 0)
    twice = sw.Population(*(np.concatenate([getattr(pop, f.name)] * 2)
                            for f in dataclasses.fields(pop)))
    return PopulationSource(pop), PopulationSource(twice)


# Known weights (the true probabilities) take vcov_known_weights; PL and CL
# take their two-step sandwiches.
@pytest.mark.parametrize("method", ["oracle_weights", "pl", "cl"])
def test_two_fold_replication_keeps_the_estimates_and_halves_the_sandwich(
        sources, method):
    once, twice = sources
    assert twice.n_population == 2 * once.n_population
    overlap = [src.internal_overlap()[0].sum() for src in sources]
    assert overlap[1] == 2 * overlap[0] > 0
    fits = []
    for src in sources:
        weight_set = METHOD_TABLE[method](src)
        fits.append((weight_set, fit_method(src, weight_set)))
    (set1, model1), (set2, model2) = fits
    assert _relative_error(model2.coefficients, model1.coefficients) <= BOUND
    if method != "oracle_weights":
        assert _relative_error(set2.alpha_hat, set1.alpha_hat) <= BOUND
    assert _relative_error(2.0 * model2.vcov, model1.vcov) <= BOUND


def _intercept_preserving(p, rng):
    """A random p-by-p matrix whose first column is (1, 0, ..., 0), so that
    a design times it keeps its intercept column of ones."""
    a = np.eye(p)
    a[:, 1:] += rng.normal(scale=0.5, size=(p, p - 1))
    return a


def _times(design, a):
    return sw.DesignMatrix(design.matrix @ a, design.column_names,
                           design.has_intercept)


# A design Z A and the parameters A^-1 theta give every unit its linear
# predictor again, so each score is A' times its own, each block A' and B'
# on either side, and the sandwich A^-1 V A^-T, whatever B is.
@pytest.mark.parametrize("method", ["oracle_weights", "pl", "cl"])
def test_a_change_of_coordinates_transforms_the_sandwich(sources, method):
    src = sources[0]
    weight_set = METHOD_TABLE[method](src)
    model = fit_method(src, weight_set)
    rng = np.random.default_rng(11)
    a = _intercept_preserving(src.disease_design.p, rng)
    b = _intercept_preserving(src.selection_design.p, rng)
    theta = np.linalg.solve(a, model.coefficients)
    z = _times(src.disease_design, a)
    if method == "oracle_weights":
        vcov = sw.vcov_known_weights(theta, z, src.outcome, weight_set.pi_hat,
                                     src.n_population)
    else:
        alpha = np.linalg.solve(b, weight_set.alpha_hat)
        xi = _times(src.selection_design, b)
        if method == "pl":
            external_X, pi_ext = src.external_sample
            vcov = sw.vcov_pl(theta, alpha, z, src.outcome, xi,
                              _times(external_X, b), pi_ext, src.n_population,
                              *src.internal_overlap())
        else:
            vcov = sw.vcov_cl(theta, alpha, z, src.outcome, xi,
                              src.n_population)
    a_inv = np.linalg.inv(a)
    assert _relative_error(vcov, a_inv @ model.vcov @ a_inv.T) <= BOUND
