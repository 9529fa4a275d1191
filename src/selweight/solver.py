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


@dataclass(frozen=True)
class SolveConfig:
    """Convergence controls for :func:`solve_estimating_equation`.

    tol_score is the max-abs residual threshold, tol_step the max-abs
    parameter-change threshold; whichever is met first stops the iteration.
    """

    tol_score: float = 1e-8
    tol_step: float = 1e-10
    max_iter: int = 100
    max_halvings: int = 30

    def __post_init__(self):
        if self.tol_score <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must be nonnegative")


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


def solve_estimating_equation(residual, jacobian, init, cfg=None):
    """Solve ``residual(x) = 0`` by damped Newton-Raphson.

    Parameters
    ----------
    residual : callable
        Maps a parameter vector to the stacked estimating-equation values.
    jacobian : callable
        Maps a parameter vector to the square Jacobian of ``residual``.
    init : array_like
        Starting point; the residual and Jacobian must be defined here.
    cfg : SolveConfig, optional

    Returns
    -------
    SolveReport
        ``converged`` is False when the iteration budget or the halving
        budget ran out; the report then carries the best iterate seen.
    """
    cfg = cfg or SolveConfig()
    x = np.array(init, dtype=float, copy=True).ravel()
    f = np.asarray(residual(x), dtype=float).ravel()
    if f.shape != x.shape:
        raise ValueError(f"residual has length {f.size}, expected {x.size}")
    norm = float(np.max(np.abs(f))) if f.size else 0.0

    best_x, best_norm = x.copy(), norm
    total_halvings = 0

    for iteration in range(1, cfg.max_iter + 1):
        if norm <= cfg.tol_score:
            return SolveReport(x, iteration - 1, norm, True,
                               total_halvings, "score tolerance met")
        jac = np.asarray(jacobian(x), dtype=float)
        if jac.shape != (x.size, x.size):
            raise ValueError(f"jacobian has shape {jac.shape}, expected square of {x.size}")
        step = -solve_linear(jac, f)

        # Halve the step until the residual norm stops increasing.
        scale = 1.0
        for halving in range(cfg.max_halvings + 1):
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
        if step_size <= cfg.tol_step:
            return SolveReport(x, iteration, norm, True,
                               total_halvings, "step tolerance met")

    converged = norm <= cfg.tol_score
    return SolveReport(x if converged else best_x, cfg.max_iter,
                       norm if converged else best_norm, converged,
                       total_halvings,
                       "" if converged else "max iterations exceeded")
