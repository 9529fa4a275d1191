"""Shared fixtures: cached Monte Carlo studies and small toy datasets.

Full-scale studies (R=500, N=50k/125k) dominate the suite's runtime, so they
are computed once per session and memoized on disk keyed by a hash of the
package sources plus the study parameters; any source change invalidates the
cache.
"""

import hashlib
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import selweight as sw

ACCEPTANCE_SEED = 20240810
ACCEPTANCE_REPLICATIONS = 500
STANDARD_METHODS = ("unweighted", "pl", "sr", "ps", "cl")

_CACHE_DIR = Path(os.environ.get("SELWEIGHT_TEST_CACHE",
                                 "/tmp/selweight-test-cache"))


# Modules whose code determines study results; edits elsewhere (cli, io)
# must not invalidate cached studies.
_STUDY_MODULES = ("errors.py", "solver.py", "fitters.py", "weights.py",
                  "variance.py", "simulation.py")


def _source_fingerprint():
    src = Path(sw.__file__).parent
    digest = hashlib.sha256()
    for name in _STUDY_MODULES:
        digest.update(name.encode())
        digest.update((src / name).read_bytes())
    return digest.hexdigest()[:16]


def cli_env():
    """The environment for a ``python -m selweight.cli`` child process,
    with this checkout's ``src`` first on its ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _n_workers():
    return max(1, min(4, os.cpu_count() or 1))


class StudyCache:
    def __init__(self):
        self._fingerprint = _source_fingerprint()
        self._memory = {}
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)

    def get(self, dag, setup, methods=None,
            replications=ACCEPTANCE_REPLICATIONS, seed=ACCEPTANCE_SEED):
        if methods is None:
            # The true-weight method rides along in the baseline scenario as
            # the regression anchor for the harness itself.
            methods = (STANDARD_METHODS + ("oracle_weights",)
                       if (dag, setup) == (1, 1) else STANDARD_METHODS)
        key = (dag, setup, tuple(methods), replications, seed)
        if key in self._memory:
            return self._memory[key]
        name = hashlib.sha256(
            f"{self._fingerprint}|{key}".encode()).hexdigest()[:24]
        path = _CACHE_DIR / f"study-{name}.pkl"
        if path.exists():
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        else:
            cfg = sw.SimulationConfig(dag=dag, setup=setup,
                                      replications=replications, seed=seed)
            result = sw.run_study(cfg, methods, parallelism=_n_workers())
            with open(path, "wb") as handle:
                pickle.dump(result, handle)
        self._memory[key] = result
        return result


@pytest.fixture(scope="session")
def studies():
    return StudyCache()


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import SUMMARY_LINES
    except ImportError:  # acceptance module not collected in this run
        return
    if SUMMARY_LINES:
        terminalreporter.section("acceptance criteria")
        for line in SUMMARY_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def workers():
    return _n_workers()


@pytest.fixture
def toy_logistic_data():
    """Six units, one covariate: small enough for dense grid-search oracles."""
    x = np.array([-1.5, -0.5, 0.0, 0.5, 1.0, 2.0])
    d = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    design = sw.DesignMatrix(np.column_stack([np.ones(6), x]),
                             ["intercept", "x"])
    return design, d


def grid_search_logistic(x, d, w, bounds=(-5.0, 5.0), step=1e-3, stride=16):
    """Grid maximizer of the weighted logistic log-likelihood.

    Independent of the Newton path: evaluates sum_i w_i [d_i eta_i -
    log(1+exp(eta_i))] at (intercept, slope) points of the 2-d grid with
    spacing ``step``.  Every ``stride``-th grid value is searched first; the
    full-resolution grid is then searched in a window around the best
    coarse point, re-centred and doubled while its best point lies on an
    edge that is not a bound of the grid.  This relies on the
    log-likelihood being concave: a window whose best point is off its
    edges is taken to hold the whole grid's best point.
    """
    grid = np.arange(bounds[0], bounds[1] + step / 2, step)
    dw = d * w
    last = grid.size - 1

    def best(rows, cols):
        """Grid indices of the first best (slope, intercept) point, rows
        (slopes) major; blocks of rows bound the memory used."""
        block = max(1, 2**20 // (cols.size * x.size))
        best_val, best_at = -np.inf, None
        for start in range(0, rows.size, block):
            t1 = grid[rows[start:start + block]]
            eta = t1[:, None, None] * x[None, None, :] + grid[cols][None, :, None]
            ll = (eta * dw[None, None, :]).sum(axis=2)
            np.logaddexp(0.0, eta, out=eta)
            ll -= (eta * w[None, None, :]).sum(axis=2)
            i, j = divmod(int(np.argmax(ll)), cols.size)
            if ll[i, j] > best_val:
                best_val, best_at = ll[i, j], (rows[start + i], cols[j])
        return best_at

    coarse = np.arange(0, grid.size, stride)
    i, j = best(coarse, coarse)
    half = stride
    while True:
        rows = np.arange(max(i - half, 0), min(i + half, last) + 1)
        cols = np.arange(max(j - half, 0), min(j + half, last) + 1)
        i, j = best(rows, cols)
        if (i in (rows[0], rows[-1]) and i not in (0, last)) or (
                j in (cols[0], cols[-1]) and j not in (0, last)):
            half *= 2
            continue
        return np.array([grid[j], grid[i]])


def finite_difference_jacobian(residual, x, rel_step=1e-6):
    """Central-difference Jacobian, an oracle for the analytic Jacobians."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(residual(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2 * h)
    return jac
