"""Newton-Raphson kernel for vector-valued estimating equations.

Every fitter in this package reduces to solving ``residual(x) = 0`` for a
smooth residual with an analytic Jacobian supplied by the caller.  The solver
uses full Newton steps with step-halving whenever a step would increase the
max-abs residual, and a dense partial-pivoting LU factorization for the inner
linear solves so that near-singular Jacobians are detected from the pivot
magnitudes rather than silently amplified.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobianError

# Pivot |u_kk| below PIVOT_RTOL * max |u| marks the factorization singular.
PIVOT_RTOL = 1e-12

# Newton stops when the max-abs residual falls to TOL_SCORE or a step's
# max-abs change to TOL_STEP, within MAX_ITER iterations of at most
# MAX_HALVINGS step halvings each.  The solver reads them when it runs.
TOL_SCORE = 1e-8
TOL_STEP = 1e-10
MAX_ITER = 100
MAX_HALVINGS = 30


@dataclass
class SolveReport:
    """Outcome of a Newton solve: final iterate plus convergence diagnostics."""

    solution: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool
    halvings: int = 0
    message: str = ""


def lu_factor(a):
    """LU-factorize a square matrix with partial pivoting.

    Returns ``(lu, perm)`` where ``lu`` packs L (unit lower) and U.  Raises
    :class:`SingularJacobianError` when a pivot falls below
    ``PIVOT_RTOL`` times the largest pivot seen.
    """
    lu = np.array(a, dtype=float, copy=True)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise ValueError("matrix must be square")
    perm = np.arange(n)
    max_pivot = 0.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        pivot = abs(lu[k, k])
        max_pivot = max(max_pivot, pivot)
        if pivot <= PIVOT_RTOL * max_pivot or pivot == 0.0:
            raise SingularJacobianError(
                f"singular factorization: pivot {pivot:.3e} at column {k} "
                f"(largest pivot {max_pivot:.3e})"
            )
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def lu_solve(lu, perm, b):
    """Solve ``A x = b`` given the output of :func:`lu_factor`."""
    b = np.asarray(b, dtype=float)
    x = b[perm] if b.ndim == 1 else b[perm, :]
    n = lu.shape[0]
    for k in range(1, n):  # forward substitution, unit diagonal
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
    return x


def solve_linear(a, b):
    """Dense linear solve with the pivoted factorization used everywhere here."""
    lu, perm = lu_factor(a)
    return lu_solve(lu, perm, b)


def invert_matrix(a):
    """Matrix inverse realized as linear solves against the identity."""
    lu, perm = lu_factor(a)
    return lu_solve(lu, perm, np.eye(a.shape[0]))


def solve_estimating_equation(residual, jacobian, init):
    """Solve ``residual(x) = 0`` by damped Newton-Raphson.

    The stopping rule is this module's ``TOL_SCORE``, ``TOL_STEP``,
    ``MAX_ITER`` and ``MAX_HALVINGS``.

    Parameters
    ----------
    residual : callable
        Maps a parameter vector to the stacked estimating-equation values.
    jacobian : callable
        Maps a parameter vector to the square Jacobian of ``residual``.
    init : array_like
        Starting point; the residual and Jacobian must be defined here.

    Returns
    -------
    SolveReport
        ``converged`` is False when the iteration budget or the halving
        budget ran out; the report then carries the best iterate seen.
    """
    x = np.array(init, dtype=float, copy=True).ravel()
    f = np.asarray(residual(x), dtype=float).ravel()
    if f.shape != x.shape:
        raise ValueError(f"residual has length {f.size}, expected {x.size}")
    norm = float(np.max(np.abs(f))) if f.size else 0.0

    best_x, best_norm = x.copy(), norm
    total_halvings = 0

    for iteration in range(1, MAX_ITER + 1):
        if norm <= TOL_SCORE:
            return SolveReport(x, iteration - 1, norm, True,
                               total_halvings, "score tolerance met")
        jac = np.asarray(jacobian(x), dtype=float)
        if jac.shape != (x.size, x.size):
            raise ValueError(f"jacobian has shape {jac.shape}, expected square of {x.size}")
        step = -solve_linear(jac, f)

        # Halve the step until the residual norm stops increasing.
        scale = 1.0
        for halving in range(MAX_HALVINGS + 1):
            x_new = x + scale * step
            f_new = np.asarray(residual(x_new), dtype=float).ravel()
            norm_new = float(np.max(np.abs(f_new)))
            if np.isfinite(norm_new) and norm_new <= norm:
                break
            scale *= 0.5
            total_halvings += 1
        else:
            return SolveReport(best_x, iteration, best_norm, False,
                               total_halvings, "step halvings exhausted")

        step_size = float(np.max(np.abs(scale * step))) if step.size else 0.0
        x, f, norm = x_new, f_new, norm_new
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
        if step_size <= TOL_STEP:
            return SolveReport(x, iteration, norm, True,
                               total_halvings, "step tolerance met")

    converged = norm <= TOL_SCORE
    return SolveReport(x if converged else best_x, MAX_ITER,
                       norm if converged else best_norm, converged,
                       total_halvings,
                       "" if converged else "max iterations exceeded")
