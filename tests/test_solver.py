import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def score_of(residual, jacobian):
    """The score of a residual and a Jacobian given as separate functions."""
    return lambda x: (residual(x), lambda: jacobian(x))


def test_linear_system_converges_in_one_iteration():
    report = sw.solve_estimating_equation(
        score_of(lambda x: 2.0 * x - 4.0, lambda x: np.array([[2.0]])), [0.0])
    assert report.converged
    assert report.iterations == 1
    assert report.solution[0] == pytest.approx(2.0, abs=1e-12)


def test_cube_root_matches_bisection(monkeypatch):
    monkeypatch.setattr(solver, "TOL_SCORE", 1e-12)
    report = sw.solve_estimating_equation(
        score_of(lambda x: x**3 - 8.0, lambda x: np.array([[3.0 * x[0] ** 2]])),
        [1.0])
    oracle = bisect_root(lambda t: t**3 - 8.0, 0.0, 10.0)
    assert report.converged
    assert report.solution[0] == pytest.approx(oracle, abs=1e-10)
    assert report.solution[0] == pytest.approx(2.0, abs=1e-10)


def test_logistic_score_matches_grid_search(toy_logistic_data):
    design, d = toy_logistic_data
    x = design.matrix
    n = x.shape[0]

    def score(theta):
        mu = sw.expit(x @ theta)
        return (x.T @ (d - mu) / n, lambda: -(x.T * (mu * (1 - mu))) @ x / n)

    report = sw.solve_estimating_equation(score, np.zeros(2))
    assert report.converged
    oracle = grid_search_logistic(x[:, 1], d, np.ones(n))
    assert np.max(np.abs(report.solution - oracle)) <= 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 5))
def test_affine_residual_one_newton_iteration(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(p, p)) + p * np.eye(p)
    b = rng.normal(size=p)
    report = sw.solve_estimating_equation(lambda x: (a @ x - b, lambda: a),
                                          np.zeros(p))
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

    base = sw.solve_estimating_equation(score_of(residual, jacobian),
                                        np.zeros(2))
    permuted = sw.solve_estimating_equation(
        score_of(lambda t: residual(t)[perm], lambda t: jacobian(t)[perm, :]),
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

    report = sw.solve_estimating_equation(score_of(residual, jacobian), [2.0])
    assert report.converged
    accepted = [norms[0]]
    for value in norms[1:]:
        if value <= accepted[-1]:
            accepted.append(value)
    # The accepted sequence is monotone by construction; the solver must have
    # finished at the smallest seen norm.
    assert report.final_residual_norm <= min(norms) + 1e-15


def test_jacobian_is_formed_only_at_accepted_points():
    # The arctan residual forces halvings, so some trial points are rejected.
    trials, formed = [], []

    def score(x):
        trials.append(x.copy())
        point = x.copy()

        def jacobian():
            formed.append(point)
            return np.diag(5.0 / (1.0 + 25.0 * point**2))

        return np.arctan(5.0 * x), jacobian

    report = sw.solve_estimating_equation(score, [2.0])
    assert report.converged and report.halvings > 0
    # A trial is accepted when its norm is at most the last accepted one's.
    accepted, best = [], np.inf
    for t in trials:
        norm = float(np.max(np.abs(np.arctan(5.0 * t))))
        if norm <= best:
            accepted.append(t)
            best = norm
    # One Jacobian per iteration, at the point that iteration steps from.
    assert len(formed) == report.iterations
    assert len(trials) == 1 + report.iterations + report.halvings
    for point, t in zip(formed, accepted):
        assert np.array_equal(point, t)


@pytest.mark.parametrize("residual, jacobian, message", [
    (lambda x: np.zeros(3), lambda x: np.eye(2),
     "residual has length 3, expected 2"),
    (lambda x: x - 1.0, lambda x: np.eye(3),
     r"jacobian has shape \(3, 3\), expected square of 2"),
])
def test_a_score_of_the_wrong_shape_is_a_validation_error(residual, jacobian,
                                                          message):
    with pytest.raises(sw.ValidationError, match=f"^{message}$"):
        sw.solve_estimating_equation(score_of(residual, jacobian),
                                     np.zeros(2))


def test_singular_jacobian_raises():
    with pytest.raises(sw.SingularJacobianError):
        sw.solve_estimating_equation(
            score_of(lambda x: np.array([x[0] + x[1], x[0] + x[1]]) - 1.0,
                     lambda x: np.array([[1.0, 1.0], [1.0, 1.0]])),
            np.zeros(2))


def test_exhausted_step_halvings_return_the_best_iterate_unconverged(
        monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
    report = sw.solve_estimating_equation(
        score_of(lambda x: np.arctan(50.0 * x) + 0.5,
                 lambda x: np.diag(50.0 / (1.0 + 2500.0 * x**2))),
        [10.0])
    assert not report.converged
    assert (report.iterations, report.message) == (2, "step halvings exhausted")
    assert np.isfinite(report.final_residual_norm)
    # The report's norm is the residual's at its solution.
    assert report.final_residual_norm == np.max(
        np.abs(np.arctan(50.0 * report.solution) + 0.5))


SQUARE_ROOT_OF_TWO = score_of(lambda x: x * x - 2.0, lambda x: np.diag(2.0 * x))


# stop -> (the solver constants it sets, the score, the start, whether the
# stop is converged).
SOLVER_STOPS = {
    "score tolerance met": ({}, SQUARE_ROOT_OF_TWO, [1.0], True),
    # No iterate's residual is below a tolerance under its rounding error.
    "step tolerance met": ({"TOL_SCORE": 1e-20}, SQUARE_ROOT_OF_TWO, [1.0],
                           True),
    # Each Newton step from 10 lowers x by about 1, the residual e^x - 1
    # with it, so no halving runs and the budget of three ends the solve.
    "max iterations exceeded": (
        {"MAX_ITER": 3},
        score_of(lambda x: np.exp(x) - 1.0, lambda x: np.diag(np.exp(x))),
        [10.0], False),
    "step halvings exhausted": (
        {"MAX_HALVINGS": 2},
        score_of(lambda x: np.arctan(50.0 * x) + 0.5,
                 lambda x: np.diag(50.0 / (1.0 + 2500.0 * x**2))),
        [10.0], False),
}


@pytest.mark.parametrize("stop", SOLVER_STOPS)
def test_each_stop_of_the_solve_is_reported(monkeypatch, stop):
    constants, score, init, converged = SOLVER_STOPS[stop]
    for name, value in constants.items():
        monkeypatch.setattr(solver, name, value)
    report = sw.solve_estimating_equation(score, init)
    assert (report.converged, report.message) == (converged, stop)
    x = report.solution
    assert report.final_residual_norm == np.max(np.abs(score(x)[0]))
    if stop == "max iterations exceeded":
        assert report.iterations == 3
    elif stop == "step tolerance met":
        assert report.final_residual_norm > solver.TOL_SCORE


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


def reference_lu_factor(a):
    """The vectorised elimination lu_factor replaced, kept as the bit-for-bit
    reference."""
    lu = np.array(a, dtype=float, copy=True)
    n = lu.shape[0]
    perm = np.arange(n)
    max_pivot = 0.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        pivot = abs(lu[k, k])
        max_pivot = max(max_pivot, pivot)
        if pivot <= solver.PIVOT_RTOL * max_pivot or pivot == 0.0:
            raise sw.SingularJacobianError(
                f"singular factorization: pivot {pivot:.3e} at column {k} "
                f"(largest pivot {max_pivot:.3e})"
            )
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def factor_outcome(factor, a):
    """(lu bytes, perm) of a factorization, or the singularity message."""
    try:
        with np.errstate(all="ignore"):  # the reference warns on inf and NaN
            lu, perm = factor(a)
    except sw.SingularJacobianError as exc:
        return str(exc)
    assert lu.dtype == np.float64 and lu.shape == a.shape
    assert perm.dtype == np.intp
    return lu.tobytes(), perm.tolist()


# Ties in magnitude (1 and -1, 2 and -2), zeros of both signs, NaN, ±inf.
LU_VALUES = st.one_of(
    st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.0, -0.0, 1e-13,
                     np.nan, np.inf, -np.inf]),
    st.floats(-10.0, 10.0))


def nan_blind_outcome(factor, a):
    """:func:`factor_outcome` with every NaN of the factors made numpy's NaN.

    When both operands of a multiply are NaN, the result is one of them:
    CPython's ``x * y`` keeps ``y``, and numpy keeps the first or the second
    depending on how it splits its loop.  So the sign of a NaN in the
    reference's factors follows numpy's loop and neither side can fix it;
    where the NaNs are is compared, with every other entry, byte for byte.
    """
    outcome = factor_outcome(factor, a)
    if isinstance(outcome, str):
        return outcome
    lu, perm = outcome
    lu = np.frombuffer(lu)
    return np.where(np.isnan(lu), np.nan, lu).tobytes(), perm


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: arrays(float, (n, n), elements=LU_VALUES)))
# The last entry of U is a NaN times a NaN, whose sign the two forms give
# differently on some hosts.
@example(np.array([[-1.0, -4.0, 6.0, 0.0, -2.0], [-7.0, np.inf, 0.0, 1.0, 2.0],
                   [-7.0, -1.0, -0.0, 7.0, -5.0], [0.0, 4.0, 1.0, 4.0, np.nan],
                   [-7.0, 1.0, 0.0, -1.0, -3.0]]))
def test_lu_factor_matches_vectorised_form(a):
    assert (nan_blind_outcome(lu_factor, a)
            == nan_blind_outcome(reference_lu_factor, a))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: arrays(float, (n, n), elements=st.floats(-1e3, 1e3))))
def test_lu_factor_matches_vectorised_form_on_finite_matrices(a):
    assert factor_outcome(lu_factor, a) == factor_outcome(reference_lu_factor, a)


@pytest.mark.parametrize("a", [
    [[1.0, 2.0], [2.0, 4.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 3.0, 4.0]],
    [[1.0, 2.0], [-1.0, 3.0]],  # tied pivot magnitudes: the first row wins
    [[np.nan, 1.0], [2.0, 1.0]],
    [[1.0, np.inf], [3.0, 1.0]],
], ids=["rank-1", "zero", "repeated-row", "tie", "nan", "inf"])
def test_lu_factor_special_matrices_match_vectorised_form(a):
    a = np.array(a)
    assert factor_outcome(lu_factor, a) == factor_outcome(reference_lu_factor, a)


def test_lu_factor_singular_messages_match_vectorised_form():
    rng = np.random.default_rng(5)
    for rank in range(1, 8):
        a = rng.normal(size=(8, rank)) @ rng.normal(size=(rank, 8))
        message = factor_outcome(reference_lu_factor, a)
        assert isinstance(message, str)
        assert factor_outcome(lu_factor, a) == message


def test_finite_difference_jacobian_matches_analytic():
    def residual(x):
        return np.array([x[0] ** 2 + x[1], np.sin(x[0]) - x[1] ** 3])

    x0 = np.array([0.7, -0.3])
    analytic = np.array([[2 * x0[0], 1.0], [np.cos(x0[0]), -3 * x0[1] ** 2]])
    fd = finite_difference_jacobian(residual, x0)
    assert np.allclose(fd, analytic, atol=1e-6)

