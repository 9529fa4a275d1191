"""Estimators and sandwiches under replication of the data and under a
change of coordinates.

Stacking every population row twice stacks the internal and the external
sample twice, with their overlap masks and design probabilities, and
doubles N.  Every estimating equation is a mean over N, so it keeps its
roots: theta-hat and alpha-hat stay put.  Every sandwich is its blocks,
which are such means too, divided by N, so it halves (Stefanski & Boos
2002).  A sandwich taken at linearly transformed designs and parameters is
the transformed sandwich, and a disease fit on a transformed design has the
transformed root.
"""

import csv
import dataclasses

import numpy as np
import pytest

import selweight as sw
from selweight import cli
from selweight import simulation as sim_mod
from selweight.dataio import format_number
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


def _reach(design, pi, theta, residual_norm, a=None):
    """How far, per coordinate, a solve that stopped at ``theta`` with
    max-abs residual ``residual_norm`` may lie from the root of
    fit_weighted_logistic's score, seen in the coordinates of ``a``
    (default: its own): to first order the root is J^-1 r away, for the
    score's Jacobian J at ``theta`` and some residual r, so each coordinate
    of a^-1 J^-1 r is at most its row's absolute sum times the norm."""
    x, n = design.matrix, design.n
    mu = sw.expit(x @ theta)
    jacobian = -(x.T * (mu * (1.0 - mu) / pi)) @ x / n
    step = np.linalg.inv(jacobian)
    if a is not None:
        step = np.linalg.solve(a, step)
    return np.abs(step).sum(axis=1) * residual_norm


def _bound(reach, transformed_reach, value):
    """Twice the two solves' reaches, for the second-order terms, plus a
    rounding allowance far below them."""
    return (2.0 * (reach + transformed_reach)
            + 1e-12 * np.max(np.abs(value)))


# The root of the score on Z A is A^-1 times the root on Z.  Each fit stops
# within its reach of its root, so the two estimates agree within the sum.
@pytest.mark.parametrize("method, seed", [("unweighted", 21), ("pl", 22),
                                          ("sr", 23)])
def test_a_change_of_coordinates_transforms_the_fitted_coefficients(
        sources, method, seed):
    src = sources[0]
    pi = METHOD_TABLE[method](src).pi_hat
    a = _intercept_preserving(src.disease_design.p,
                              np.random.default_rng(seed))
    z, za = src.disease_design, _times(src.disease_design, a)
    fit = sw.fit_weighted_logistic(z, src.outcome, pi)
    transformed = sw.fit_weighted_logistic(za, src.outcome, pi)
    theta, phi = fit.coefficients, transformed.coefficients
    bound = _bound(_reach(z, pi, theta, fit.report.final_residual_norm, a),
                   _reach(za, pi, phi, transformed.report.final_residual_norm),
                   phi)
    assert np.all(np.abs(phi - np.linalg.solve(a, theta)) <= bound)


def _write_csv(path, columns):
    names = list(columns)
    rows = zip(*(map(format_number, columns[name]) for name in names))
    path.write_text("\n".join([",".join(names), *map(",".join, rows)]) + "\n")


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# A disease covariate in other units: z1 times 12 is the design Z D with
# D = diag(1, 12, 1), so the z1 estimate and its standard error are divided
# by 12.  Each estimate's bound is its solve's reach, recorded from the
# command's own fit; each standard error's is the change of the sandwich
# across that reach.
@pytest.mark.parametrize("method", ["unweighted", "sr"])
def test_a_covariate_times_12_divides_its_cli_estimate_and_se_by_12(
        monkeypatch, tmp_path, method):
    cfg = sw.SimulationConfig(dag=3, setup=1, n_population=20_000, seed=5)
    pop = sw.generate_population(cfg, 0)
    internal, external = pop.s == 1.0, pop.s_ext == 1.0
    names = ("d", "z1", "z2", "w", "s", "s_ext", "pi_ext")
    data = {name: getattr(pop, name)[internal] for name in names}
    files = {"data.csv": data, "scaled.csv": {**data, "z1": 12.0 * data["z1"]},
             "external.csv": {name: getattr(pop, name)[external]
                              for name in names}}
    for name, columns in files.items():
        _write_csv(tmp_path / name, columns)
    (tmp_path / "roles.cfg").write_text(
        "outcome=d\ndisease_covariates=z1,z2\nselection_covariates=z2,w\n"
        "selection_indicator=s\nexternal_indicator=s_ext\n"
        "external_prob=pi_ext\n")
    reports = []
    fit_weighted_logistic = sim_mod.fit_weighted_logistic

    def recorded(*args):
        model = fit_weighted_logistic(*args)
        reports.append(model.report)
        return model

    monkeypatch.setattr(sim_mod, "fit_weighted_logistic", recorded)

    def run(command, data_file):
        out = tmp_path / f"{command}-{data_file}"
        assert cli.main([command, "--method", method,
                         "--roles", str(tmp_path / "roles.cfg"),
                         "--data", str(tmp_path / data_file),
                         "--external-data", str(tmp_path / "external.csv"),
                         "--out", str(out)]) == 0
        return _read_csv(out)

    pi = np.ones(int(internal.sum()))
    if method != "unweighted":
        pi = np.array([float(row["pi_hat"])
                       for row in run("weights", "data.csv")])
    d = np.array([1.0, 12.0, 1.0])
    fits = []
    for data_file in ("data.csv", "scaled.csv"):
        rows = run("fit", data_file)
        assert [row["parameter"] for row in rows] == ["intercept", "z1", "z2"]
        theta = np.array([float(row["estimate"]) for row in rows])
        z = sw.build_design([files[data_file]["z1"], data["z2"]],
                            ["z1", "z2"])
        reach = _reach(z, pi, theta, reports[-1].final_residual_norm)

        def se(at):
            return np.sqrt(np.diag(sw.vcov_known_weights(at, z, data["d"],
                                                         pi, z.n)))

        # To first order, a move within the reach changes the standard
        # errors by at most the sum of their changes along each axis.
        moved = sum(np.abs(se(theta + r * e) - se(theta))
                    for r, e in zip(reach, np.eye(3)))
        fits.append((theta, np.array([float(row["std_error"]) for row in rows]),
                     reach, moved))
    (theta, se1, reach, moved), (phi, se12, reach12, moved12) = fits
    assert np.all(np.abs(phi - theta / d) <= _bound(reach / d, reach12, phi))
    assert np.all(np.abs(se12 - se1 / d) <= _bound(moved / d, moved12, se12))
