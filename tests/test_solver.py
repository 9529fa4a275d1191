import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selweight as sw
from selweight import solver
from selweight.solver import lu_factor, lu_solve, solve_linear

from conftest import finite_difference_jacobian, grid_search_logistic


def bisect_root(f, lo, hi, tol=1e-12):
    # Independent oracle: plain bisection on a sign change.
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_linear_system_converges_in_one_iteration():
    report = sw.solve_estimating_equation(
        lambda x: 2.0 * x - 4.0, lambda x: np.array([[2.0]]), [0.0])
    assert report.converged
    assert report.iterations == 1
    assert report.solution[0] == pytest.approx(2.0, abs=1e-12)


def test_cube_root_matches_bisection(monkeypatch):
    monkeypatch.setattr(solver, "TOL_SCORE", 1e-12)
    report = sw.solve_estimating_equation(
        lambda x: x**3 - 8.0, lambda x: np.array([[3.0 * x[0] ** 2]]),
        [1.0])
    oracle = bisect_root(lambda t: t**3 - 8.0, 0.0, 10.0)
    assert report.converged
    assert report.solution[0] == pytest.approx(oracle, abs=1e-10)
    assert report.solution[0] == pytest.approx(2.0, abs=1e-10)


def test_logistic_score_matches_grid_search(toy_logistic_data):
    design, d = toy_logistic_data
    x = design.matrix
    n = x.shape[0]

    def residual(theta):
        return x.T @ (d - sw.expit(x @ theta)) / n

    def jacobian(theta):
        mu = sw.expit(x @ theta)
        return -(x.T * (mu * (1 - mu))) @ x / n

    report = sw.solve_estimating_equation(residual, jacobian, np.zeros(2))
    assert report.converged
    oracle = grid_search_logistic(x[:, 1], d, np.ones(n))
    assert np.max(np.abs(report.solution - oracle)) <= 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 5))
def test_affine_residual_one_newton_iteration(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(p, p)) + p * np.eye(p)
    b = rng.normal(size=p)
    report = sw.solve_estimating_equation(
        lambda x: a @ x - b, lambda x: a, np.zeros(p))
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, np.linalg.solve(a, b), atol=1e-8)


def test_solution_invariant_under_equation_permutation(toy_logistic_data):
    design, d = toy_logistic_data
    x = design.matrix
    perm = np.array([1, 0])

    def residual(theta):
        return x.T @ (d - sw.expit(x @ theta)) / x.shape[0]

    def jacobian(theta):
        mu = sw.expit(x @ theta)
        return -(x.T * (mu * (1 - mu))) @ x / x.shape[0]

    base = sw.solve_estimating_equation(residual, jacobian, np.zeros(2))
    permuted = sw.solve_estimating_equation(
        lambda t: residual(t)[perm], lambda t: jacobian(t)[perm, :],
        np.zeros(2))
    assert (np.max(np.abs(base.solution - permuted.solution))
            <= 10 * solver.TOL_SCORE)


def test_step_halving_never_accepts_worse_iterate():
    # f(x) = arctan-like flat-tailed residual makes full Newton overshoot.
    norms = []

    def residual(x):
        value = np.arctan(5.0 * x)
        norms.append(float(np.max(np.abs(value))))
        return value

    def jacobian(x):
        return np.diag(5.0 / (1.0 + 25.0 * x**2))

    report = sw.solve_estimating_equation(residual, jacobian, [2.0])
    assert report.converged
    accepted = [norms[0]]
    for value in norms[1:]:
        if value <= accepted[-1]:
            accepted.append(value)
    # The accepted sequence is monotone by construction; the solver must have
    # finished at the smallest seen norm.
    assert report.final_residual_norm <= min(norms) + 1e-15


def test_singular_jacobian_raises():
    with pytest.raises(sw.SingularJacobianError):
        sw.solve_estimating_equation(
            lambda x: np.array([x[0] + x[1], x[0] + x[1]]) - 1.0,
            lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.zeros(2))


def test_max_iterations_returns_best_iterate_unconverged(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
    report = sw.solve_estimating_equation(
        lambda x: np.arctan(50.0 * x) + 0.5,
        lambda x: np.diag(50.0 / (1.0 + 2500.0 * x**2)),
        [10.0])
    assert not report.converged
    assert report.iterations <= 3
    assert np.isfinite(report.final_residual_norm)


def test_lu_factor_solves_and_flags_pivots():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    b = rng.normal(size=6)
    lu, perm = lu_factor(a)
    assert np.allclose(a @ lu_solve(lu, perm, b), b, atol=1e-10)
    assert np.allclose(solve_linear(a, b), np.linalg.solve(a, b), atol=1e-10)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(sw.SingularJacobianError):
        lu_factor(singular)


def test_finite_difference_jacobian_matches_analytic():
    def residual(x):
        return np.array([x[0] ** 2 + x[1], np.sin(x[0]) - x[1] ** 3])

    x0 = np.array([0.7, -0.3])
    analytic = np.array([[2 * x0[0], 1.0], [np.cos(x0[0]), -3 * x0[1] ** 2]])
    fd = finite_difference_jacobian(residual, x0)
    assert np.allclose(fd, analytic, atol=1e-6)

