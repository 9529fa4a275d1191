"""Newton-Raphson kernel for vector-valued estimating equations.

Every fitter in this package reduces to solving ``residual(x) = 0`` for a
smooth residual with an analytic Jacobian, passed as one score: ``score(x)``
returns the residual at ``x`` and a callable forming the Jacobian there,
which the solver calls only at accepted points.  The solver uses full
Newton steps with step-halving whenever a step would increase the
max-abs residual, and a dense partial-pivoting LU factorization for the inner
linear solves so that near-singular Jacobians are detected from the pivot
magnitudes rather than silently amplified.  The factorization eliminates on
Python floats, since the systems have a handful of unknowns; the triangular
solves keep numpy's ``@``, whose dot products the last bits of every
variance depend on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobianError, ValidationError

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

    The elimination runs on Python floats: for the 1-by-1 to 8-by-8
    matrices solved here, a numpy call per row operation costs more than
    the arithmetic.  It takes the steps of the vectorised form, one
    element at a time: the pivot is the first row of largest magnitude (or
    the first NaN, as ``np.argmax`` picks), each multiplier is one
    division, and each update one multiply then one subtract, so the
    factors are the same bits.
    """
    lu = np.array(a, dtype=float, copy=True)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise ValueError("matrix must be square")
    rows = lu.tolist()
    perm = list(range(n))
    max_pivot = 0.0
    for k in range(n):
        piv, best = k, abs(rows[k][k])
        if best == best:  # not NaN
            for i in range(k + 1, n):
                magnitude = abs(rows[i][k])
                if magnitude > best:
                    piv, best = i, magnitude
                elif magnitude != magnitude:
                    piv = i
                    break
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            perm[k], perm[piv] = perm[piv], perm[k]
        head = rows[k]
        pivot = abs(head[k])
        max_pivot = max(max_pivot, pivot)
        if pivot <= PIVOT_RTOL * max_pivot or pivot == 0.0:
            raise SingularJacobianError(
                f"singular factorization: pivot {pivot:.3e} at column {k} "
                f"(largest pivot {max_pivot:.3e})"
            )
        diagonal, upper = head[k], head[k + 1 :]
        for row in rows[k + 1 :]:
            factor = row[k] / diagonal
            row[k] = factor
            row[k + 1 :] = [value - factor * u
                            for value, u in zip(row[k + 1 :], upper)]
    lu[...] = rows
    return lu, np.array(perm, dtype=np.intp)


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


def solve_estimating_equation(score, init):
    """Solve ``residual(x) = 0`` by damped Newton-Raphson.

    The stopping rule is this module's ``TOL_SCORE``, ``TOL_STEP``,
    ``MAX_ITER`` and ``MAX_HALVINGS``.

    Parameters
    ----------
    score : callable
        Maps a parameter vector ``x`` to ``(residual, jacobian)``: the
        stacked estimating-equation values at ``x`` and a zero-argument
        callable returning their square Jacobian at ``x``, which the
        solver calls only for points it accepts, at most once each.
    init : array_like
        Starting point; the residual and Jacobian must be defined here.

    Returns
    -------
    SolveReport
        ``converged`` is False when the iteration budget or the halving
        budget ran out; the report then carries the last iterate, whose
        residual norm is the least seen: no accepted step raises it.

    A residual at ``init`` of other than ``init``'s size, or a Jacobian of
    other than its square shape, raises :class:`ValidationError`.
    """
    x = np.array(init, dtype=float, copy=True).ravel()
    f, jacobian = score(x)
    f = np.asarray(f, dtype=float).ravel()
    if f.shape != x.shape:
        raise ValidationError(f"residual has length {f.size}, expected {x.size}")
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    total_halvings = 0

    for iteration in range(1, MAX_ITER + 1):
        if norm <= TOL_SCORE:
            return SolveReport(x, iteration - 1, norm, True,
                               total_halvings, "score tolerance met")
        jac = np.asarray(jacobian(), dtype=float)
        if jac.shape != (x.size, x.size):
            raise ValidationError(
                f"jacobian has shape {jac.shape}, expected square of {x.size}")
        step = -solve_linear(jac, f)

        # Halve the step until the residual norm stops increasing.
        scale = 1.0
        for halving in range(MAX_HALVINGS + 1):
            x_new = x + scale * step
            f_new, jacobian_new = score(x_new)
            f_new = np.asarray(f_new, dtype=float).ravel()
            norm_new = float(np.max(np.abs(f_new)))
            if np.isfinite(norm_new) and norm_new <= norm:
                break
            scale *= 0.5
            total_halvings += 1
        else:
            return SolveReport(x, iteration, norm, False,
                               total_halvings, "step halvings exhausted")

        step_size = float(np.max(np.abs(scale * step))) if step.size else 0.0
        x, f, norm, jacobian = x_new, f_new, norm_new, jacobian_new
        if step_size <= TOL_STEP:
            return SolveReport(x, iteration, norm, True,
                               total_halvings, "step tolerance met")

    converged = norm <= TOL_SCORE
    return SolveReport(x, MAX_ITER, norm, converged, total_halvings,
                       "" if converged else "max iterations exceeded")
