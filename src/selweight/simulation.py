"""Monte Carlo engine for the selection-bias study.

Populations are generated under four dependence scenarios (``dag`` 1-4)
crossed with three internal-selection-model forms (``setup`` 1-3), an
external probability sample is drawn alongside, and each replication fits
the requested weighting methods with their matching sandwich variances.
Replication streams are keyed by (seed, replication index) on a
counter-based generator (Philox), and normal variates come from the
inverse CDF, so studies are bit-reproducible at any degree of parallelism.
A population is drawn in row blocks, each reading its uniforms from fixed
positions in the replication's stream, so a block's rows do not depend on
the block count.  A replication's methods are shared between the calling
process and persistent worker processes, one per further usable CPU and
method, forked on first use.  The processes split the population's row
blocks between them, each drawing its share into one shared population
file, and meet at a barrier; then each takes methods from one task pipe,
and each worker's results return on its own connection, merged in
``methods`` order.  Every array and result is the same bits in any
process, at any worker or block count.
"""

import atexit
import ctypes
import gc
import math
import mmap
import os
import pickle
import signal
import sys
import threading
import traceback
import weakref
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from multiprocessing.connection import Connection, Pipe
from typing import Optional

import numpy as np

from .errors import (
    AllReplicationsFailedError,
    SelweightError,
    StudyError,
    ValidationError,
)
from .fitters import (
    FittedModel,
    build_design,
    expit,
    fit_weighted_logistic,
    is_finite,
    is_integer,
    is_real,
)
from .variance import (
    CI_LEVEL,
    normal_quantile,
    vcov_cl,
    vcov_known_weights,
    vcov_pl,
)
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
        for name in ("dag", "setup", "n_population", "replications", "seed"):
            value = getattr(self, name)
            if not (is_integer(value)
                    or (name == "n_population" and value is None)):
                raise ValidationError(f"{name} must be an integer")
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
        if self.n_population is not None and self.n_population >= 2**63:
            raise ValidationError("n_population must be less than 2**63")
        z = self.z_correlation
        if not (is_real(z) and abs(z) < 1.0):
            raise ValidationError("z_correlation must lie in (-1, 1)")
        for name in ("external_scale", "setup2_scale"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 < value <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1]")
        for name, size in (("theta", 3), ("nu", 4)):
            values = getattr(self, name)
            if not (isinstance(values, (Sequence, np.ndarray))
                    and len(values) == size
                    and all(map(is_finite, values))):
                raise ValidationError(f"{name} must be {size} finite numbers")
            # Stored as a tuple of floats, so every config hashes and equal
            # configs compare equal, whatever sequence they were given.
            object.__setattr__(self, name, tuple(map(float, values)))
        for name in ("alpha0", "alpha2", "alpha3"):
            if not is_finite(getattr(self, name)):
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


# Rows per block of a population draw.  A block's three scratch buffers
# (256 KiB each) are made once and reused by all six of its draws, so they
# stay in cache.
POPULATION_BLOCK_ROWS = 32_768


def _uniforms(key, start, m, out=None):
    """Uniforms ``start .. start + m - 1`` of the Philox stream keyed by ``key``,
    written into ``out`` when it is given.

    A Philox counter step yields four 64-bit outputs and each uniform takes
    one, so the stream is reached at ``start`` without drawing what comes
    before it.
    """
    bits = np.random.Philox(key=key)
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    return np.random.Generator(bits).random(m, out=out)


def _standard_normal(u, out):
    # Inverse-CDF sampling keeps draws identical across platforms.  ``u`` is
    # clipped in place.
    return normal_quantile(np.clip(u, 1e-300, 1.0 - 1e-16, out=u), out=out)


def _draw_block(cfg, key, pop, lo, hi):
    """Draw rows ``lo:hi`` of ``pop`` in place.

    Draw ``t`` (z1, z2 innovation, disease, w innovation, internal
    selection, external selection) reads uniform ``j`` of the population
    at stream position ``t * n + j``; everything after the uniforms is
    element-wise, so a row's values do not depend on the block it is in.
    Each draw writes straight into the block's rows of the columns, through
    one uniform buffer ``u`` and two scratch buffers ``a`` and ``b`` that
    all six draws reuse.  Every step keeps the operands of the formula in
    the comment above it (swapping the two operands of ``*`` or ``+`` is
    exact, regrouping is not), so the bits are the formulas' own.
    """
    n, m = pop.n, hi - lo
    z1, z2, w, d, s, s_ext, pi_true, pi_ext = (
        column[lo:hi] for column in (pop.z1, pop.z2, pop.w, pop.d, pop.s,
                                     pop.s_ext, pop.pi_true, pop.pi_ext))
    u, a, b = np.empty(m), np.empty(m), np.empty(m)

    def uniforms(t):
        return _uniforms(key, t * n + lo, m, out=u)

    # z1 = N0;  z2 = (rho * z1) + (sqrt(1 - rho**2) * N1)
    rho = cfg.z_correlation
    _standard_normal(uniforms(0), z1)
    np.multiply(rho, z1, out=z2)
    _standard_normal(uniforms(1), a)
    a *= math.sqrt(1.0 - rho**2)
    z2 += a

    # d = U2 < expit((t0 + t1 * z1) + t2 * z2), as 1.0 or 0.0
    t0, t1, t2 = cfg.theta
    np.multiply(t1, z1, out=a)
    a += t0
    a += np.multiply(t2, z2, out=b)
    np.less(uniforms(2), expit(a, out=a), out=d)

    # w = ((g1 * d + g2 * z1) + g3 * z2) + N3
    g1, g2, g3 = cfg.gamma
    np.multiply(g1, d, out=a)
    a += np.multiply(g2, z1, out=b)
    a += np.multiply(g3, z2, out=b)
    np.add(a, _standard_normal(uniforms(3), w), out=w)

    # pi_true = scale * expit(eta), with eta = alpha0 + alpha1 * z2
    # + alpha2 * w + alpha3 * d + (a4 * d) * z2 + (a5 * d) * w summed left
    # to right;  s = U4 < pi_true
    a4, a5 = cfg.interactions
    np.multiply(cfg.alpha1, z2, out=a)
    a += cfg.alpha0
    a += np.multiply(cfg.alpha2, w, out=b)
    a += np.multiply(cfg.alpha3, d, out=b)
    np.multiply(a4, d, out=b)
    a += np.multiply(b, z2, out=b)
    np.multiply(a5, d, out=b)
    a += np.multiply(b, w, out=b)
    np.multiply(cfg.selection_scale, expit(a, out=pi_true), out=pi_true)
    np.less(uniforms(4), pi_true, out=s)

    # pi_ext = scale * expit(((v0 + v1 * z2) + v2 * w) + v3 * d);
    # s_ext = U5 < pi_ext
    v0, v1, v2, v3 = cfg.nu
    np.multiply(v1, z2, out=a)
    a += v0
    a += np.multiply(v2, w, out=b)
    a += np.multiply(v3, d, out=b)
    np.multiply(cfg.external_scale, expit(a, out=pi_ext), out=pi_ext)
    np.less(uniforms(5), pi_ext, out=s_ext)


def _replication_key(cfg, replication_index):
    """The Philox key of replication ``replication_index``; the index, the
    key's second word, must be an integer (not a bool) in [0, 2**64), or
    :class:`ValidationError` is raised."""
    if not (is_integer(replication_index) and 0 <= replication_index < 2**64):
        raise ValidationError("replication_index must be an integer in "
                              f"[0, 2**64), got {replication_index!r}")
    return np.array([cfg.seed, int(replication_index)], dtype=np.uint64)


def _draw_blocks(cfg, key, pop, rank=0, ranks=1):
    """Draw row blocks ``rank``, ``rank + ranks``, ... of ``pop`` in place,
    of the fewest near-equal blocks of at most ``POPULATION_BLOCK_ROWS``
    rows; a block's rows are the same bits whoever draws it."""
    n = pop.n
    blocks = -(-n // POPULATION_BLOCK_ROWS)
    for i in range(rank, blocks, ranks):
        _draw_block(cfg, key, pop, i * n // blocks, (i + 1) * n // blocks)


def generate_population(cfg, replication_index=0):
    """Simulate one population under the configured scenario.

    Draw order is fixed (z1, z2 innovation, disease, w innovation, internal
    selection, external selection) so a (seed, replication) pair always
    yields the same arrays.  Every row block is drawn on the calling thread
    into fresh arrays; the blocks hold at most ``POPULATION_BLOCK_ROWS``
    rows, each drawn from its own positions in the replication's stream, so
    the arrays are the same bits for any block count.
    ``replication_index``, the stream key's second word, must be an integer
    (not a bool) in [0, 2**64), or :class:`ValidationError` is raised.
    """
    key = _replication_key(cfg, replication_index)
    pop = Population(*(np.empty(cfg.population_size) for _ in range(8)))
    _draw_blocks(cfg, key, pop)
    return pop


@dataclass
class MethodResult:
    """One method's output for one replication: on success the fitted model
    and the WeightSet it was fitted at (unit weights for ``unweighted``), on
    failure the error text."""

    method: str
    model: Optional[FittedModel] = None
    weight_set: Optional[WeightSet] = None
    error: Optional[str] = None

    @property
    def failed(self):
        return self.error is not None


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

        def design(names, rows):
            return build_design([getattr(pop, name)[rows] for name in names],
                                names)

        self.disease_design = design(["z1", "z2"], self.internal)
        self.selection_design = design(["z2", "w", "d"], self.internal)
        x_ext = design(["z2", "w", "d"], self.external)
        self.outcome = pop.d[self.internal]
        # (selection design, known design probabilities) of the external sample
        self.external_sample = (x_ext, pop.pi_ext[self.external])
        self._internal_in_external = pop.s_ext[self.internal] == 1.0

    def overlap(self):
        """(internal units also in the external sample, external units also
        in the internal sample), as masks over each sample's rows."""
        return (self._internal_in_external,
                self.population.s[self.external] == 1.0)

    def internal_overlap(self):
        """(internal units also in the external sample, their design probabilities)."""
        return self._internal_in_external, self.population.pi_ext[self.internal]

    def poststratification_inputs(self):
        """(internal cells, summary with N) on (d, z2 bin, w bin) cells."""
        pop = self.population
        columns = (pop.d.astype(int), coarsen(pop.z2), coarsen(pop.w))
        # Filled a column at a time; np.column_stack took twice as long.
        cells_all = np.empty((pop.n, len(columns)), dtype=int)
        for j, column in enumerate(columns):
            cells_all[:, j] = column
        codes = cell_codes(cells_all)
        summary = PopulationSummary("joint_cells",
                                    levels=cells_all[first_occurrence(codes)],
                                    probabilities=np.bincount(codes) / pop.n,
                                    population_size=pop.n)
        # A row gather by ``take`` copies each row whole.
        return np.take(cells_all, self.internal, axis=0), summary

    def calibration_summary(self):
        pop = self.population
        means = np.array([pop.z2.mean(), pop.w.mean(), pop.d.mean()])
        return PopulationSummary("marginal_means", means=means,
                                 names=["z2", "w", "d"], population_size=pop.n)


def _weights_unweighted(src):
    return WeightSet(np.ones(src.outcome.size), "unweighted")


def _weights_pl(src):
    return estimate_weights_pl(src.selection_design, *src.external_sample)


def _weights_sr(src):
    return estimate_weights_sr(src.selection_design, *src.external_sample,
                               *src.overlap())


def _weights_ps(src):
    return estimate_weights_ps(*src.poststratification_inputs())


def _weights_cl(src):
    return estimate_weights_cl(src.selection_design, src.calibration_summary())


def _weights_oracle(src):
    pi = src.population.pi_true[src.internal]
    return WeightSet(pi, "known")


# The one place a method is paired with its weight estimator, which maps a
# source to a WeightSet; the weight set then picks its sandwich (see
# fit_method).  Estimators look up this module's globals when they run, so
# rebinding a name here, or an entry of this table, reaches every caller,
# the CLI included: a replication runs in the calling process alone while
# any binding of the package differs from the one its workers were forked
# with.
METHOD_TABLE = {
    "unweighted": _weights_unweighted,
    "pl": _weights_pl,
    "sr": _weights_sr,
    "ps": _weights_ps,
    "cl": _weights_cl,
    "oracle_weights": _weights_oracle,
}
METHODS = tuple(METHOD_TABLE)
# The methods that run on data; oracle weights need the simulated truth.
DATA_METHODS = tuple(m for m in METHODS if m != "oracle_weights")


def fit_method(src, weight_set):
    """Fit the weighted disease model at ``weight_set.pi_hat`` with the
    sandwich that the weight set calls for.

    A "PL" or "CL" set holds the selection coefficients its probabilities
    were estimated from, and takes that estimator's two-step sandwich.  Any
    other set (SR, PS, known, unit or post-processed weights) takes the
    fixed-weight sandwich at its probabilities: a two-step sandwich
    describes only an estimator's own probabilities.
    """
    pi, alpha = weight_set.pi_hat, weight_set.alpha_hat
    model = fit_weighted_logistic(src.disease_design, src.outcome, pi)
    theta = model.coefficients
    if weight_set.method == "PL":
        internal_in_external, internal_pi_ext = src.internal_overlap()
        model.vcov = vcov_pl(theta, alpha, src.disease_design, src.outcome,
                             src.selection_design, *src.external_sample,
                             src.n_population,
                             internal_in_external=internal_in_external,
                             internal_pi_ext=internal_pi_ext)
    elif weight_set.method == "CL":
        model.vcov = vcov_cl(theta, alpha, src.disease_design, src.outcome,
                             src.selection_design, src.n_population)
    else:
        model.vcov = vcov_known_weights(theta, src.disease_design, src.outcome,
                                        pi, src.n_population)
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
        weight_set = METHOD_TABLE[method](src)
        return MethodResult(method, model=fit_method(src, weight_set),
                            weight_set=weight_set)
    except SelweightError as exc:
        return MethodResult(method, error=f"{type(exc).__name__}: {exc}")


def run_replication(cfg, replication_index, methods=METHODS):
    """Generate one population and fit every requested method on it.

    ``methods`` must be non-empty, known and without repeats, and
    ``replication_index`` must follow :func:`generate_population`'s rule;
    otherwise a :class:`ValidationError` is raised before anything is
    drawn.  The results come back in ``methods`` order.  Per-method
    failures are captured in the returned results rather than raised, so a
    single separation or convergence failure does not abort a study.  Any
    other exception propagates; when several methods raise, the one listed
    first in ``methods`` does, from whichever process fitted it.  The
    methods are shared between the calling process and
    :func:`_helper_count` worker processes (see :func:`_serving_workers`),
    with results bit-identical to one process's.  The processes draw the
    population's row blocks in turn into one shared file, and no method
    starts before every block is drawn; an exception in any process's
    share of the draw is raised for the whole replication.  No returned
    array views the shared file, which the next replication overwrites.
    A worker that dies raises :class:`ChildProcessError`, and the next
    replication forks a new one.
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
    """Worker processes for a replication: min(distinct ``methods``, usable
    CPUs) - 1."""
    return min(len(methods), _usable_cpus()) - 1


def _replicate(cfg, replication_index, methods, helpers):
    """{method: result} of one replication, its methods shared with up to
    ``helpers`` workers; the first listed method's exception propagates."""
    _replication_key(cfg, replication_index)  # checked before a worker sees it
    workers = _serving_workers(helpers)
    if workers:
        outcomes = _share(workers, cfg, replication_index, methods)
    else:
        outcomes = _fit_share(generate_population(cfg, replication_index),
                              methods, range(len(methods)))
    results = [outcomes[i] for i in range(len(methods))]
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return dict(zip(methods, results))


def _fit_share(population, methods, indices):
    """{index: outcome} for each method index in ``indices``, fitted on
    ``population``, the whole population however its blocks were drawn.
    An outcome is the method's :class:`MethodResult` or the exception it
    (or building its inputs) raised."""
    try:
        src = PopulationSource(population)
    except Exception as exc:
        return {i: exc for i in indices}
    outcomes = {}
    for i in indices:
        try:
            outcomes[i] = _fit_one(methods[i], src)
        except Exception as exc:  # raised in methods order by _replicate
            outcomes[i] = exc
    return outcomes


# Worker processes.  Per replication the caller grows the shared population
# file to the population's size and sends each worker it uses (cfg,
# replication index, methods, numpy error state, rank, ranks) on the
# worker's connection.  Process ``rank`` of ``ranks``, the caller being rank
# 0, draws row blocks rank, rank + ranks, ... into the file.  Then comes the
# barrier: each worker sends {rank: its share's exception or None}, and the
# caller answers each whether every share was drawn.  If so, the caller has
# written every method index, then one stop byte per taker, to the task
# pipe; the caller and the workers take indices from it one byte per read,
# so each index goes to exactly one of them, and a worker returns its
# outcomes on its connection.
_STOP = 255


@dataclass
class _Worker:
    pid: int
    connection: Connection  # the caller's end of the worker's duplex pipe


@cache
def _libc():
    """The C library, with ``mmap`` and ``munmap`` declared for ctypes."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long)
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    return libc


def _mapping(fd, size):
    """The first ``size`` bytes of file ``fd``, mapped shared and writable,
    as a ctypes array that is unmapped once no array views it.  Unlike an
    ``mmap.mmap`` before Python 3.13, it keeps no copy of the descriptor,
    so a process forked while arrays view it still holds none."""
    libc = _libc()
    address = libc.mmap(None, size, mmap.PROT_READ | mmap.PROT_WRITE,
                        mmap.MAP_SHARED, fd, 0)
    if address in (None, ctypes.c_void_p(-1).value):  # MAP_FAILED
        code = ctypes.get_errno()
        raise OSError(code, os.strerror(code))
    mapping = (ctypes.c_char * size).from_address(address)
    # Not at exit: an exit handler may still read a population.
    weakref.finalize(mapping, libc.munmap, address, size).atexit = False
    return mapping


class _PopulationFile:
    """The population file that a caller shares with its workers, and this
    process's one mapping of it.  Only the caller grows the file, which
    never shrinks; a process maps it again only when a population outgrows
    its mapping.  A population takes 64 bytes a row: eight float64
    columns, one after another."""

    def __init__(self, fd):
        self.fd, self.mapping = fd, None

    def grow(self, n):
        """Make the file hold an ``n``-row population, if it is smaller."""
        if os.fstat(self.fd).st_size < 64 * n:
            os.ftruncate(self.fd, 64 * n)

    def population(self, n):
        """An ``n``-row population whose columns are views of the file."""
        if self.mapping is None or len(self.mapping) < 64 * n:
            self.mapping = _mapping(self.fd, 64 * n)
        return Population(*(np.frombuffer(self.mapping, count=n,
                                          offset=8 * n * j)
                            for j in range(8)))

    def close(self):
        """Close the file; the mapping is unmapped once no array views it."""
        os.close(self.fd)
        self.mapping = None


class _WorkerPool:
    """This process's workers, the task pipe (read and write descriptors)
    and the population file that they share with it, and the package
    bindings they were forked with."""

    def __init__(self):
        self.workers, self.bindings = [], None
        self.tasks = self.population = None


_POOL = _WorkerPool()


def _package_bindings():
    """(namespace, copy of it) for each imported module of the package and
    for METHOD_TABLE."""
    package = __name__.partition(".")[0]
    namespaces = [vars(module) for name, module in list(sys.modules.items())
                  if name.partition(".")[0] == package]
    return [(ns, dict(ns)) for ns in namespaces + [METHOD_TABLE]]


def _serving_workers(helpers):
    """The first ``helpers`` workers, forked as needed, or none where none
    can serve: off Linux, while other Python threads are alive, or while a
    module-level binding of the package or a METHOD_TABLE entry is not the
    one the workers were forked with (as under a test's monkeypatch or a
    tracer's wrappers)."""
    if (helpers < 1 or not sys.platform.startswith("linux")
            or threading.active_count() > 1):
        return []
    pool, missing = _POOL, object()
    if not pool.workers:
        pool.bindings = _package_bindings()
        pool.tasks = pool.tasks or os.pipe()
        pool.population = pool.population or _PopulationFile(
            os.memfd_create("selweight-population"))
    elif not all(ns.get(name, missing) is value for ns, saved in pool.bindings
                 for name, value in saved.items()):
        return []
    while len(pool.workers) < helpers:
        pool.workers.append(_fork_worker(pool.tasks[0], pool.population.fd))
    return pool.workers[:helpers]


def _fork_worker(tasks, population):
    """Fork a worker that takes method indices from the task pipe's read
    end ``tasks`` and draws into the population file ``population``."""
    connection, worker_end = Pipe()
    # The child's after-fork hook closes the pool's descriptors, but not
    # these copies of the task pipe's read end and the population file.
    kept = os.dup(tasks), os.dup(population)
    try:
        pid = os.fork()
        if pid == 0:
            _serve(worker_end, *kept)  # never returns
    except OSError:
        connection.close()
        raise
    finally:  # the caller keeps only its own end
        worker_end.close()
        for fd in kept:
            os.close(fd)
    return _Worker(pid, connection)


def _serve(connection, tasks, population):
    """A worker's life: serve the replications sent on ``connection`` until
    the caller closes it, then exit."""
    status = 1
    try:
        # A terminal's Ctrl-C interrupts the caller, which then stops its
        # workers; a worker that took it too would die between replications.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Never collect the caller's objects, which would copy their pages,
        # and keep only the worker's connection, the task pipe, the
        # population file and descriptors 0-2 open.  os.closerange(0, 0)
        # closes every descriptor, so no empty range is passed.
        gc.freeze()
        kept = sorted({0, 1, 2, connection.fileno(), tasks, population})
        for low, high in zip(kept, kept[1:] + [os.sysconf("SC_OPEN_MAX")]):
            if high > low + 1:
                os.closerange(low + 1, high)
        shared = _PopulationFile(population)
        while True:
            cfg, replication_index, methods, errstate, rank, ranks = (
                connection.recv())
            with np.errstate(**errstate):
                pop, failure = _draw_share(shared, cfg, replication_index,
                                           rank, ranks)
                connection.send(_sendable({rank: failure}))
                if connection.recv():  # every share was drawn
                    connection.send(_sendable(_fit_share(pop, methods,
                                                         _taken(tasks))))
    except EOFError:  # the caller closed the connection
        status = 0
    except (BrokenPipeError, ConnectionResetError):  # the caller is gone
        pass
    except Exception:
        traceback.print_exc()  # the caller reports only the exit status
    finally:
        os._exit(status)


def _draw_share(shared, cfg, replication_index, rank, ranks):
    """Process ``rank`` of ``ranks``' share of a shared replication's draw:
    row blocks ``rank``, ``rank + ranks``, ... of the population, whose
    columns are views of the population file ``shared``.  Return
    (population, None), or (None, the exception) when the share raised."""
    try:
        pop = shared.population(cfg.population_size)
        _draw_blocks(cfg, _replication_key(cfg, replication_index), pop,
                     rank, ranks)
    except Exception as exc:
        return None, exc
    return pop, None


def _taken(tasks):
    """The method indices read from the task pipe ``tasks``, one byte per
    read, up to a stop byte or the pipe's end."""
    while (byte := os.read(tasks, 1)) and byte[0] != _STOP:
        yield byte[0]


def _sendable(outcomes):
    """``outcomes`` ready to pickle to the caller: each exception carries
    this process's traceback as a note, and one that does not survive
    pickling becomes a RuntimeError that names it."""
    substitutes = {}
    for exc in {id(o): o for o in outcomes.values()
                if isinstance(o, Exception)}.values():
        exc.add_note(f"Raised in worker process {os.getpid()}:\n"
                     + "".join(traceback.format_exception(exc)))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            substitute = RuntimeError(f"{type(exc).__qualname__}: {exc}")
            substitute.__notes__ = exc.__notes__
            substitutes[id(exc)] = substitute
    return {i: substitutes.get(id(o), o) for i, o in outcomes.items()}


def _share(workers, cfg, replication_index, methods):
    """The caller's side of a replication shared with ``workers``: {index:
    outcome} for every method.  Where a share of the draw raised, every
    outcome is the exception of the first such share by rank, and no
    method runs.  Any failure here stops every worker, and a worker that
    died raises ChildProcessError."""
    pool = _POOL
    read, write = pool.tasks
    ranks = len(workers) + 1
    worker = None
    try:
        pool.population.grow(cfg.population_size)
        for rank, worker in enumerate(workers, 1):
            worker.connection.send((cfg, replication_index, methods,
                                    np.geterr(), rank, ranks))
        worker = None
        pop, failure = _draw_share(pool.population, cfg, replication_index,
                                   0, ranks)
        failures = {0: failure}
        for worker in workers:  # the barrier
            failures.update(worker.connection.recv())
        worker = None
        failure = next((f for f in failures.values() if f is not None), None)
        if failure is None:
            os.write(write, bytes(range(len(methods)))
                     + bytes([_STOP]) * ranks)
        for worker in workers:
            worker.connection.send(failure is None)
        worker = None
        if failure is not None:
            outcomes = dict.fromkeys(range(len(methods)), failure)
        else:
            outcomes = _fit_share(pop, methods, _taken(read))
            for worker in workers:
                outcomes.update(worker.connection.recv())
    except BaseException as exc:
        statuses = _close_workers()
        if worker is None or not isinstance(exc, (OSError, EOFError)):
            raise
        status = statuses[worker.pid]
        code = "unknown" if status is None else os.waitstatus_to_exitcode(status)
        raise ChildProcessError(
            f"worker process {worker.pid} ended with exit code {code}; "
            f"replication {replication_index} did not finish") from exc
    return outcomes


def _forget_workers():
    """Close this process's ends of the workers' connections and the task
    pipe, and the population file and its mapping, and forget the workers;
    return them.  A forked child runs this first, so that it holds none of
    its parent's workers' descriptors."""
    pool = _POOL
    workers, pool.workers = pool.workers, []
    for worker in workers:
        worker.connection.close()
    for fd in pool.tasks or ():
        os.close(fd)
    if pool.population is not None:
        pool.population.close()
    pool.tasks = pool.population = pool.bindings = None
    return workers


def _close_workers():
    """Stop this process's workers: forget them, then kill and reap each.
    Return {pid: wait status}, None where another waiter reaped it."""
    statuses = {}
    for worker in _forget_workers():
        try:
            os.kill(worker.pid, signal.SIGKILL)
            statuses[worker.pid] = os.waitpid(worker.pid, 0)[1]
        except (ProcessLookupError, ChildProcessError):
            statuses[worker.pid] = None
    return statuses


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(_close_workers)


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
            compact[method] = (res.model.coefficients,
                               np.diag(res.model.vcov).copy(), ws.alpha_hat,
                               ws.clamped)
    return compact


def _pooled_replication_task(cfg, methods, index):
    """A replication in a study's pool process, which forks no workers; an
    exception leaves the process as a worker's does (see _sendable)."""
    try:
        return _run_replication_task(cfg, methods, 0, index)
    except Exception as exc:
        raise _sendable({index: exc})[index] from None


def run_study(cfg, methods=DATA_METHODS, parallelism=1):
    """Run the configured number of replications and aggregate the metrics.

    ``methods`` follows :func:`run_replication`'s rule, and ``parallelism``
    must be an integer (not a bool) of at least 1; both are checked before
    any replication runs.  With ``parallelism`` 1 each replication runs as
    :func:`run_replication` does, its methods shared with the calling
    process's workers; with more, replications run in min(``parallelism``,
    replications) pool processes, which fork no workers of their own, as
    the pool already fills the CPUs.  An exception from a pool process
    carries its traceback as a note, or becomes a RuntimeError that names
    it if it does not survive pickling, as a worker's does.  Outcomes are
    reduced in replication order, so the result is identical for every
    ``parallelism`` value.  A method that fails in every replication, or in
    more than 10% of them, raises a :class:`StudyError`.
    """
    methods = _distinct_methods(methods)
    if not is_integer(parallelism):
        raise ValidationError(
            f"parallelism must be an integer, got {parallelism!r}")
    if parallelism < 1:
        raise ValidationError(f"parallelism must be at least 1, got {parallelism}")
    r_total = cfg.replications
    processes = min(parallelism, r_total)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(
                partial(_pooled_replication_task, cfg, methods),
                range(r_total), chunksize=max(1, r_total // (8 * processes))))
    else:
        helpers = _helper_count(methods)
        outcomes = [_run_replication_task(cfg, methods, helpers, r)
                    for r in range(r_total)]

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
