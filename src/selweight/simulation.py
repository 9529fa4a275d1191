"""Monte Carlo engine for the selection-bias study.

Populations are generated under four dependence scenarios (``dag`` 1-4)
crossed with three internal-selection-model forms (``setup`` 1-3), an
external probability sample is drawn alongside, and each replication fits
the requested weighting methods with their matching sandwich variances.
Replication streams are keyed by (seed, replication index) on a
counter-based generator (Philox), and normal variates come from the
inverse CDF, so studies are bit-reproducible at any degree of parallelism.
A population is drawn in row blocks, each reading its uniforms from fixed
positions in the replication's stream, so the blocks can be drawn in any
order.  A replication runs in two stages, the blocks and then the methods
(which read only the finished population); each stage runs on the calling
thread and on helper threads started for it and joined at its end, one per
further usable CPU and method.  Every array and result is the same bits at
any thread, process or block count.
"""

import math
import os
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    AllReplicationsFailedError,
    SelweightError,
    SparseBinError,
    StudyError,
    ValidationError,
)
from .fitters import DesignMatrix, FittedModel, expit, fit_weighted_logistic
from .variance import normal_quantile, vcov_cl, vcov_known_weights, vcov_pl
from .weights import (
    PopulationSummary,
    WeightSet,
    cell_codes,
    coarsen,
    estimate_weights_cl,
    estimate_weights_pl,
    estimate_weights_ps,
    estimate_weights_sr,
    first_occurrence,
    overlap_labels,
)

# Scenario tables: disease-to-selection coupling per dag, interaction terms
# per (dag, setup).
DAG_GAMMA = {1: (0.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0),
             3: (0.0, 1.0, 0.0), 4: (1.0, 1.0, 1.0)}
DAG_ALPHA1 = {1: 0.0, 2: 0.0, 3: 0.7, 4: 0.7}
DAG_SETUP3_INTERACTIONS = {1: (0.0, 0.4), 2: (0.0, 0.4),
                           3: (0.5, 0.4), 4: (0.5, 0.4)}
DEFAULT_POPULATION_SIZE = {1: 50_000, 2: 125_000, 3: 50_000}


@dataclass(frozen=True)
class SimulationConfig:
    """Generative constants for one scenario; defaults follow the study design."""

    dag: int
    setup: int
    n_population: Optional[int] = None
    replications: int = 500
    seed: int = 0
    theta: tuple = (-2.0, 0.5, 0.5)
    alpha0: float = -0.8
    alpha2: float = 0.3
    alpha3: float = 1.0
    nu: tuple = (-0.6, 1.2, 0.4, 0.5)
    external_scale: float = 0.75
    setup2_scale: float = 0.4
    z_correlation: float = 0.5

    def __post_init__(self):
        if self.dag not in (1, 2, 3, 4):
            raise ValidationError("dag must be 1, 2, 3, or 4")
        if self.setup not in (1, 2, 3):
            raise ValidationError("setup must be 1, 2, or 3")
        # A study's spread over replications needs at least two.
        if self.replications < 2:
            raise ValidationError("replications must be at least 2")
        if not (0 <= self.seed < 2**63):
            raise ValidationError("seed must be a nonnegative 63-bit integer")
        if self.n_population is not None and self.n_population < 1:
            raise ValidationError("n_population must be positive")
        if not abs(self.z_correlation) < 1.0:
            raise ValidationError("z_correlation must lie in (-1, 1)")
        for name in ("external_scale", "setup2_scale"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1]")
        for name, size in (("theta", 3), ("nu", 4)):
            values = getattr(self, name)
            if len(values) != size or not all(map(math.isfinite, values)):
                raise ValidationError(f"{name} must be {size} finite numbers")
        for name in ("alpha0", "alpha2", "alpha3"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @property
    def population_size(self):
        if self.n_population is not None:
            return self.n_population
        return DEFAULT_POPULATION_SIZE[self.setup]

    @property
    def gamma(self):
        return DAG_GAMMA[self.dag]

    @property
    def alpha1(self):
        return DAG_ALPHA1[self.dag]

    @property
    def interactions(self):
        """(alpha4, alpha5): zero outside setup 3."""
        if self.setup == 3:
            return DAG_SETUP3_INTERACTIONS[self.dag]
        return (0.0, 0.0)

    @property
    def selection_scale(self):
        return self.setup2_scale if self.setup == 2 else 1.0

    def parameter_table(self):
        """Every resolved numeric constant, for snapshot comparison."""
        return {
            "dag": self.dag,
            "setup": self.setup,
            "n_population": self.population_size,
            "theta": list(self.theta),
            "gamma": list(self.gamma),
            "alpha": [self.alpha0, self.alpha1, self.alpha2, self.alpha3],
            "interactions": list(self.interactions),
            "selection_scale": self.selection_scale,
            "nu": list(self.nu),
            "external_scale": self.external_scale,
            "z_correlation": self.z_correlation,
        }


@dataclass
class Population:
    """One simulated target population with both sampling mechanisms realized."""

    z1: np.ndarray
    z2: np.ndarray
    w: np.ndarray
    d: np.ndarray
    s: np.ndarray
    s_ext: np.ndarray
    pi_true: np.ndarray
    pi_ext: np.ndarray

    @property
    def n(self):
        return self.z1.size


# Rows per block of a population draw.  Blocks of this size keep a draw's
# temporaries in cache and let the replication's threads share the draw.
POPULATION_BLOCK_ROWS = 32_768


def _run_tasks(tasks, helpers):
    """The results of the zero-argument callables ``tasks``, in task order.

    The calling thread and up to ``helpers`` helper threads (no more than
    there are further tasks) take tasks from one queue; helpers run under
    the caller's numpy error state and are joined before this returns or
    raises.  Every task runs; if some raise, the exception of the one
    listed first is raised.
    """
    queue = deque(enumerate(tasks))
    results = [None] * len(queue)
    errors = [None] * len(queue)
    saved = np.geterr()

    def drain():
        # numpy's error state is per thread; helpers take the caller's.
        with np.errstate(**saved):
            # popleft is atomic, so each task is taken by exactly one thread.
            while True:
                try:
                    i, task = queue.popleft()
                except IndexError:
                    return
                try:
                    results[i] = task()
                except Exception as exc:  # raised in task order below
                    errors[i] = exc

    threads = []
    try:
        for _ in range(min(helpers, len(queue) - 1)):
            thread = threading.Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        for thread in threads:
            thread.join()

    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _uniforms(key, start, m):
    """Uniforms ``start .. start + m - 1`` of the Philox stream keyed by ``key``.

    A Philox counter step yields four 64-bit outputs and each uniform takes
    one, so the stream is reached at ``start`` without drawing what comes
    before it.
    """
    bits = np.random.Philox(key=key)
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    return np.random.Generator(bits).random(m)


def _standard_normal(u):
    # Inverse-CDF sampling keeps draws identical across platforms.
    return normal_quantile(np.clip(u, 1e-300, 1.0 - 1e-16))


def _draw_block(cfg, key, pop, lo, hi):
    """Draw rows ``lo:hi`` of ``pop`` in place.

    Draw ``t`` (z1, z2 innovation, disease, w innovation, internal
    selection, external selection) reads uniform ``j`` of the population
    at stream position ``t * n + j``; everything after the uniforms is
    element-wise, so a row's values do not depend on the block it is in.
    """
    n, m = pop.n, hi - lo

    def uniforms(t):
        return _uniforms(key, t * n + lo, m)

    rho = cfg.z_correlation
    z1 = _standard_normal(uniforms(0))
    z2 = rho * z1 + math.sqrt(1.0 - rho**2) * _standard_normal(uniforms(1))

    t0, t1, t2 = cfg.theta
    d = (uniforms(2) < expit(t0 + t1 * z1 + t2 * z2)).astype(float)

    g1, g2, g3 = cfg.gamma
    w = g1 * d + g2 * z1 + g3 * z2 + _standard_normal(uniforms(3))

    a4, a5 = cfg.interactions
    eta = (cfg.alpha0 + cfg.alpha1 * z2 + cfg.alpha2 * w + cfg.alpha3 * d
           + a4 * d * z2 + a5 * d * w)
    pi_true = cfg.selection_scale * expit(eta)
    s = (uniforms(4) < pi_true).astype(float)

    v0, v1, v2, v3 = cfg.nu
    pi_ext = cfg.external_scale * expit(v0 + v1 * z2 + v2 * w + v3 * d)
    s_ext = (uniforms(5) < pi_ext).astype(float)

    parts = {"z1": z1, "z2": z2, "w": w, "d": d, "s": s, "s_ext": s_ext,
             "pi_true": pi_true, "pi_ext": pi_ext}
    for name, part in parts.items():
        getattr(pop, name)[lo:hi] = part


def generate_population(cfg, replication_index=0, *, helpers=0):
    """Simulate one population under the configured scenario.

    Draw order is fixed (z1, z2 innovation, disease, w innovation, internal
    selection, external selection) so a (seed, replication) pair always
    yields the same arrays.  The rows are drawn in blocks of at most
    ``POPULATION_BLOCK_ROWS``, each from its own positions in the
    replication's stream, on the calling thread and up to ``helpers``
    helper threads; the arrays are the same bits for any block or thread
    count.
    """
    n = cfg.population_size
    key = np.array([cfg.seed, replication_index], dtype=np.uint64)
    pop = Population(*(np.empty(n) for _ in range(8)))
    blocks = -(-n // POPULATION_BLOCK_ROWS)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    _run_tasks([partial(_draw_block, cfg, key, pop, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])], helpers)
    return pop


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

    Default bins are equiprobable per axis.  Bins with fewer than
    ``min_class_count`` units in either disease class, or with no selected
    unit in one class, are skipped and reported in ``skipped``.
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


@dataclass
class MethodResult:
    """One method's output for one replication."""

    method: str
    model: Optional[FittedModel] = None
    weight_set: Optional[WeightSet] = None
    error: Optional[str] = None

    @property
    def failed(self):
        return self.error is not None


def _selection_design(population, rows):
    return DesignMatrix(
        np.column_stack([np.ones(rows.size), population.z2[rows],
                         population.w[rows], population.d[rows]]),
        ["intercept", "z2", "w", "d"],
    )


class PopulationSource:
    """Method inputs read from one simulated population.

    The internal sample is the units with ``s == 1``, the external sample
    those with ``s_ext == 1``; ``internal`` and ``external`` are their row
    indices (``np.flatnonzero``), not boolean masks, since an index gather
    reads only the chosen rows.  The designs are built up front: building
    them on first use does the same work but measured about 10% slower per
    dag 3 replication on a 2-core host.  The cell table and the marginal
    means are built only when a method asks for them.
    """

    def __init__(self, population):
        pop = self.population = population
        self.internal = np.flatnonzero(pop.s == 1.0)
        self.external = np.flatnonzero(pop.s_ext == 1.0)
        self.n_population = pop.n
        self.disease_design = DesignMatrix(
            np.column_stack([np.ones(self.internal.size),
                             pop.z1[self.internal], pop.z2[self.internal]]),
            ["intercept", "z1", "z2"],
        )
        self.selection_design = _selection_design(pop, self.internal)
        x_ext = _selection_design(pop, self.external)
        self.outcome = pop.d[self.internal]
        # (selection design, known design probabilities) of the external sample
        self.external_sample = (x_ext, pop.pi_ext[self.external])

    def overlap(self):
        pop = self.population
        return overlap_labels(pop.s_ext[self.internal] == 1.0,
                              pop.s[self.external] == 1.0)

    def internal_overlap(self):
        """(internal units also in the external sample, their design probabilities)."""
        pop = self.population
        return pop.s_ext[self.internal] == 1.0, pop.pi_ext[self.internal]

    def poststratification_inputs(self):
        """(internal cells, summary with N) on (d, z2 bin, w bin) cells."""
        pop = self.population
        cells_all = np.column_stack([pop.d.astype(int), coarsen(pop.z2),
                                     coarsen(pop.w)])
        codes = cell_codes(cells_all)
        summary = PopulationSummary("joint_cells",
                                    levels=cells_all[first_occurrence(codes)],
                                    probabilities=np.bincount(codes) / pop.n,
                                    population_size=pop.n)
        return cells_all[self.internal], summary

    def calibration_summary(self):
        pop = self.population
        means = np.array([pop.z2.mean(), pop.w.mean(), pop.d.mean()])
        return PopulationSummary("marginal_means", means=means,
                                 names=["z2", "w", "d"], population_size=pop.n)


def _weights_pl(src):
    return estimate_weights_pl(src.selection_design, *src.external_sample)


def _weights_sr(src):
    return estimate_weights_sr(src.selection_design, *src.external_sample,
                               src.overlap())


def _weights_ps(src):
    return estimate_weights_ps(*src.poststratification_inputs())


def _weights_cl(src):
    return estimate_weights_cl(src.selection_design, src.calibration_summary())


def _weights_oracle(src):
    pi = src.population.pi_true[src.internal]
    return WeightSet(pi, "known", diagnostics={"source": "true"})


def _fixed_weight_sandwich(src, theta, pi, weight_set):
    return vcov_known_weights(theta, src.disease_design, src.outcome, pi,
                              src.n_population)


def _pl_sandwich(src, theta, pi, weight_set):
    internal_in_external, internal_pi_ext = src.internal_overlap()
    return vcov_pl(theta, weight_set.alpha_hat, src.disease_design,
                   src.outcome, src.selection_design, *src.external_sample,
                   src.n_population, internal_in_external=internal_in_external,
                   internal_pi_ext=internal_pi_ext)


def _cl_sandwich(src, theta, pi, weight_set):
    return vcov_cl(theta, weight_set.alpha_hat, src.disease_design,
                   src.outcome, src.selection_design, src.n_population)


# The one place a method is paired with its weight estimator (None: unit
# weights) and its sandwich.  Estimators map a source to a WeightSet;
# sandwiches map (source, theta, pi, weight set) to the variance of theta.
# Both look up this module's globals when they run, so rebinding a name here
# reaches every caller, the CLI included.
METHOD_TABLE = {
    "unweighted": (None, _fixed_weight_sandwich),
    "pl": (_weights_pl, _pl_sandwich),
    "sr": (_weights_sr, _fixed_weight_sandwich),
    "ps": (_weights_ps, _fixed_weight_sandwich),
    "cl": (_weights_cl, _cl_sandwich),
    "oracle_weights": (_weights_oracle, _fixed_weight_sandwich),
}
METHODS = tuple(METHOD_TABLE)
# The methods that run on data; oracle weights need the simulated truth.
DATA_METHODS = tuple(m for m in METHODS if m != "oracle_weights")


def estimate_pi(method, src):
    """Run ``method``'s weight estimator on ``src``; return (pi, weight set or None)."""
    estimator, _ = METHOD_TABLE[method]
    if estimator is None:
        return np.ones(src.outcome.size), None
    weight_set = estimator(src)
    return weight_set.pi_hat, weight_set


def fit_method(method, src, pi, weight_set):
    """Fit the weighted disease model at ``pi`` with ``method``'s sandwich.

    ``weight_set`` is what :func:`estimate_pi` returned with ``pi``.  Pass
    None when ``pi`` was post-processed (winsorized or outcome-augmented):
    a two-step sandwich describes only the estimator's own probabilities,
    so the fit then takes the fixed-weight sandwich at ``pi``.
    """
    model = fit_weighted_logistic(src.disease_design, src.outcome, pi)
    _, sandwich = METHOD_TABLE[method]
    if weight_set is None:
        sandwich = _fixed_weight_sandwich
    model.vcov = sandwich(src, model.coefficients, pi, weight_set)
    return model


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_one(method, src):
    """``method``'s result on ``src``; a :class:`SelweightError` is captured
    in it, and any other exception propagates."""
    try:
        pi, weight_set = estimate_pi(method, src)
        model = fit_method(method, src, pi, weight_set)
        return MethodResult(method, model=model, weight_set=weight_set)
    except SelweightError as exc:
        return MethodResult(method, error=f"{type(exc).__name__}: {exc}")


def run_replication(cfg, replication_index, methods=METHODS):
    """Generate one population and fit every requested method on it.

    ``methods`` must be non-empty, known and without repeats; otherwise a
    :class:`ValidationError` is raised before anything is drawn.  The
    results come back in ``methods`` order.  Per-method failures are
    captured in the returned results rather than raised, so a single
    separation or convergence failure does not abort a study.  Any other
    exception propagates; when several methods raise, the one listed first
    in ``methods`` does.  The draw and then the fits each run on the calling
    thread and :func:`_helper_count` helper threads, with results
    bit-identical to one thread's.
    """
    methods = _distinct_methods(methods)
    return _replicate(cfg, replication_index, methods, _helper_count(methods))


def _distinct_methods(methods):
    """``methods`` as a tuple: non-empty, known methods, none repeated."""
    methods = tuple(methods)
    if not methods:
        raise ValidationError("at least one method is required")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ValidationError(f"method {repeated[0]!r} is repeated")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValidationError(f"unknown methods {unknown}")
    return methods


def _helper_count(methods):
    """Helper threads per stage: min(distinct ``methods``, usable CPUs) - 1."""
    return min(len(methods), _usable_cpus()) - 1


def _replicate(cfg, replication_index, methods, helpers):
    src = PopulationSource(generate_population(cfg, replication_index,
                                               helpers=helpers))
    results = _run_tasks([partial(_fit_one, method, src)
                          for method in methods], helpers)
    return dict(zip(methods, results))


# Coverage is that of the two-sided Wald interval at this level.
CI_LEVEL = 0.95


@dataclass
class StudyMetric:
    """Aggregated performance of one method for one parameter."""

    method: str
    parameter: str
    bias: float
    relative_bias_pct: float
    rmse_relative: float
    coverage: float
    mean_est_var: float
    mc_var: float
    failures: int
    n_used: int


@dataclass
class StudyResult:
    """Study-level summary over replications, one row per method and parameter.

    ``alpha_means`` holds the average fitted selection-model coefficients for
    the methods that estimate them (PL, CL); ``clamp_counts`` the total
    number of clamped probabilities per method across replications.
    """

    rows: list
    dag: int
    setup: int
    replications: int
    seed: int
    alpha_means: dict = field(default_factory=dict)
    clamp_counts: dict = field(default_factory=dict)

    def metric(self, method, parameter):
        for row in self.rows:
            if row.method == method and row.parameter == parameter:
                return row
        raise KeyError(f"no row for ({method}, {parameter})")


def _run_replication_task(cfg, methods, helpers, index):
    results = _replicate(cfg, index, methods, helpers)
    compact = {}
    for method, res in results.items():
        if res.failed:
            compact[method] = res.error
        else:
            ws = res.weight_set
            alpha, clamps = None, 0
            if ws is not None:
                alpha = ws.alpha_hat
                clamps = (ws.diagnostics.get("clamped_low", 0)
                          + ws.diagnostics.get("clamped_high", 0))
            compact[method] = (res.model.coefficients,
                               np.diag(res.model.vcov).copy(), alpha, clamps)
    return compact


def run_study(cfg, methods=DATA_METHODS, parallelism=1):
    """Run the configured number of replications and aggregate the metrics.

    ``methods`` follows :func:`run_replication`'s rule, and ``parallelism``
    must be at least 1; both are checked before any replication runs.  With
    ``parallelism`` 1 each replication runs as :func:`run_replication`
    does; with more, replications run in that many worker processes, which
    start no threads, as the processes already fill the CPUs.  Outcomes are
    reduced in replication order, so the result is identical for every
    ``parallelism`` value.  A method that fails in every replication, or in
    more than 10% of them, raises a :class:`StudyError`.
    """
    methods = _distinct_methods(methods)
    if parallelism < 1:
        raise ValidationError(f"parallelism must be at least 1, got {parallelism}")
    r_total = cfg.replications
    processes = parallelism > 1
    task = partial(_run_replication_task, cfg, methods,
                   0 if processes else _helper_count(methods))
    if processes:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(task, range(r_total),
                                     chunksize=max(1, r_total // (8 * parallelism))))
    else:
        outcomes = [task(r) for r in range(r_total)]

    # Per method, its (theta, diag(vcov), alpha, clamps) in each replication
    # it did not fail, in replication order.
    fits = {m: [o[m] for o in outcomes if not isinstance(o[m], str)]
            for m in methods}
    for method, kept in fits.items():
        failures = r_total - len(kept)
        if not kept:
            raise AllReplicationsFailedError(
                f"all {r_total} replications failed for {method}"
            )
        if failures > 0.10 * r_total:
            raise StudyError(
                f"{failures} of {r_total} replications failed for {method}"
            )

    true_theta = np.asarray(cfg.theta)
    parameters = {"theta1": 1, "theta2": 2}
    z = normal_quantile(0.5 * (1.0 + CI_LEVEL))

    def mse(est, j):
        return float(np.mean((est[:, j] - true_theta[j]) ** 2))

    unweighted = (np.asarray([fit[0] for fit in fits["unweighted"]])
                  if "unweighted" in fits else None)
    rows, alpha_means, clamp_counts = [], {}, {}
    for method, kept in fits.items():
        thetas, var_diags, alphas, clamps = zip(*kept)
        est, var = np.asarray(thetas), np.asarray(var_diags)
        for name, j in parameters.items():
            truth = true_theta[j]
            bias = float(np.mean(est[:, j]) - truth)
            rel = 100.0 * abs(bias) / abs(truth)
            half = z * np.sqrt(var[:, j])
            covered = (est[:, j] - half <= truth) & (truth <= est[:, j] + half)
            rmse_rel = (mse(est, j) / mse(unweighted, j)
                        if unweighted is not None else float("nan"))
            rows.append(StudyMetric(
                method=method,
                parameter=name,
                bias=bias,
                relative_bias_pct=rel,
                rmse_relative=rmse_rel,
                coverage=float(np.mean(covered)),
                mean_est_var=float(np.mean(var[:, j])),
                mc_var=float(np.var(est[:, j], ddof=1)),
                failures=r_total - len(kept),
                n_used=est.shape[0],
            ))
        alphas = [a for a in alphas if a is not None]
        if alphas:
            alpha_means[method] = np.mean(np.asarray(alphas), axis=0)
        clamp_counts[method] = sum(clamps)
    return StudyResult(rows=rows, dag=cfg.dag, setup=cfg.setup,
                       replications=r_total, seed=cfg.seed,
                       alpha_means=alpha_means, clamp_counts=clamp_counts)
