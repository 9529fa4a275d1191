"""Shared fixtures: cached Monte Carlo studies and small toy datasets.

Full-scale studies (R=500, N=50k/125k) dominate the suite's runtime, so they
are computed once per session and memoized on disk keyed by a hash of the
package sources plus the study parameters; any source change invalidates the
cache.
"""

import hashlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import selweight as sw
from selweight import simulation

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
    """Pool processes for a cached study: at most 4, and no more than the
    CPUs this process may run on.  A study is the same at any count."""
    return min(4, simulation._usable_cpus())


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


def _child_pids():
    """The ids of this process's child processes, reaped or not, as Linux
    lists them per thread; elsewhere none."""
    tasks = Path("/proc/self/task")
    return sorted(int(pid) for path in tasks.glob("*/children")
                  for pid in path.read_text().split())


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Stop the replication workers a test forked, so that no later test
    (and none of its monkeypatches) meets a worker forked before it.  Then
    fail the test if any other child process of it is left, such as a
    study's pool process, after killing and reaping it so that the next
    test starts clean."""
    yield
    simulation._close_workers()
    left = _child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if left:
        pytest.fail(f"child processes {left} outlived the test")


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


def logit(p):
    """The log-odds of ``p``: a float for a scalar, else an array."""
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


class SparseBinError(Exception):
    """A diagnostic bin has too few units in one outcome class."""


@dataclass
class LogRatioBins:
    """Binned estimates of the log selection-probability ratio by disease status."""

    z1_mean: np.ndarray
    z2_mean: np.ndarray
    z1_bin: np.ndarray
    z2_bin: np.ndarray
    log_ratio: np.ndarray
    variance: np.ndarray
    n_disease: np.ndarray
    n_control: np.ndarray
    skipped: list = field(default_factory=list)


def estimate_r_offset_mc(population, z1_cutoffs=None, z2_cutoffs=None,
                         n_bins=(5, 5), min_class_count=50):
    """Estimate log P(S=1|D=1,bin) - log P(S=1|D=0,bin) over a (z1, z2) grid.

    An oracle for the simulator: the scenarios' DAGs predict which binned
    selection-ratio structure a population shows.  Default bins are
    equiprobable per axis.  Bins with fewer than ``min_class_count`` units
    in either disease class, or with no selected unit in one class, are
    skipped and reported in ``skipped``.
    """
    z1, z2 = population.z1, population.z2
    if z1_cutoffs is None:
        z1_cutoffs = np.quantile(z1, np.arange(1, n_bins[0]) / n_bins[0])
    if z2_cutoffs is None:
        z2_cutoffs = np.quantile(z2, np.arange(1, n_bins[1]) / n_bins[1])
    z1_cutoffs = np.asarray(z1_cutoffs, dtype=float)
    z2_cutoffs = np.asarray(z2_cutoffs, dtype=float)
    k1, k2 = z1_cutoffs.size + 1, z2_cutoffs.size + 1

    b1 = np.searchsorted(z1_cutoffs, z1, side="right")
    b2 = np.searchsorted(z2_cutoffs, z2, side="right")
    bin_id = b1 * k2 + b2
    nb = k1 * k2
    d = population.d
    s = population.s

    n_dis = np.bincount(bin_id, weights=d, minlength=nb)
    n_con = np.bincount(bin_id, weights=1.0 - d, minlength=nb)
    sel_dis = np.bincount(bin_id, weights=d * s, minlength=nb)
    sel_con = np.bincount(bin_id, weights=(1.0 - d) * s, minlength=nb)
    z1_sum = np.bincount(bin_id, weights=z1, minlength=nb)
    z2_sum = np.bincount(bin_id, weights=z2, minlength=nb)
    n_all = n_dis + n_con

    rows = {k: [] for k in ("z1_mean", "z2_mean", "z1_bin", "z2_bin",
                            "log_ratio", "variance", "n_disease", "n_control")}
    skipped = []
    for idx in range(nb):
        i1, i2 = divmod(idx, k2)
        if n_all[idx] == 0:
            continue
        if n_dis[idx] < min_class_count or n_con[idx] < min_class_count:
            skipped.append(SparseBinError(
                f"bin ({i1}, {i2}) has class counts "
                f"({int(n_dis[idx])}, {int(n_con[idx])}) below {min_class_count}"
            ))
            continue
        if sel_dis[idx] == 0 or sel_con[idx] == 0:
            skipped.append(SparseBinError(
                f"bin ({i1}, {i2}) has an empty selected class"
            ))
            continue
        p1 = sel_dis[idx] / n_dis[idx]
        p0 = sel_con[idx] / n_con[idx]
        rows["z1_mean"].append(z1_sum[idx] / n_all[idx])
        rows["z2_mean"].append(z2_sum[idx] / n_all[idx])
        rows["z1_bin"].append(i1)
        rows["z2_bin"].append(i2)
        rows["log_ratio"].append(math.log(p1) - math.log(p0))
        rows["variance"].append(
            1.0 / sel_dis[idx] - 1.0 / n_dis[idx]
            + 1.0 / sel_con[idx] - 1.0 / n_con[idx]
        )
        rows["n_disease"].append(n_dis[idx])
        rows["n_control"].append(n_con[idx])
    return LogRatioBins(
        **{k: np.asarray(v) for k, v in rows.items()}, skipped=skipped
    )
