import ctypes
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import selweight as sw
from selweight import simulation as sim_mod
from selweight import weights as w_mod

from conftest import SparseBinError, cli_env, estimate_r_offset_mc

GH_PREVALENCE = 0.1471669542  # 80-node Gauss-Hermite value of E[expit(-2 + u)],
                              # u ~ N(0, 0.75); oracle recomputed below.


def gauss_hermite_prevalence():
    nodes, wts = np.polynomial.hermite.hermgauss(80)
    sd = np.sqrt(0.75)
    vals = 1.0 / (1.0 + np.exp(-(-2.0 + sd * np.sqrt(2.0) * nodes)))
    return float(np.sum(wts * vals) / np.sqrt(np.pi))


def test_gauss_hermite_oracle_frozen_value():
    assert gauss_hermite_prevalence() == pytest.approx(GH_PREVALENCE, abs=1e-9)


# ---------------------------------------------------------------------------
# configuration


def parameter_table(cfg):
    """Every resolved numeric constant of ``cfg``, for snapshot comparison."""
    return {
        "dag": cfg.dag,
        "setup": cfg.setup,
        "n_population": cfg.population_size,
        "theta": list(cfg.theta),
        "gamma": list(cfg.gamma),
        "alpha": [cfg.alpha0, cfg.alpha1, cfg.alpha2, cfg.alpha3],
        "interactions": list(cfg.interactions),
        "selection_scale": cfg.selection_scale,
        "nu": list(cfg.nu),
        "external_scale": cfg.external_scale,
        "z_correlation": cfg.z_correlation,
    }


def test_scenario_constants_match_snapshot():
    path = Path(__file__).parent / "data" / "scenario_constants.json"
    snapshot = json.loads(path.read_text())
    for dag in (1, 2, 3, 4):
        for setup in (1, 2, 3):
            cfg = sw.SimulationConfig(dag=dag, setup=setup)
            assert parameter_table(cfg) == snapshot[f"dag{dag}_setup{setup}"]


def test_config_validation():
    with pytest.raises(sw.ValidationError):
        sw.SimulationConfig(dag=5, setup=1)
    with pytest.raises(sw.ValidationError):
        sw.SimulationConfig(dag=1, setup=0)
    for replications in (0, 1):
        with pytest.raises(sw.ValidationError,
                           match="^replications must be at least 2$"):
            sw.SimulationConfig(dag=1, setup=1, replications=replications)
    with pytest.raises(sw.ValidationError):
        sw.SimulationConfig(dag=1, setup=1, seed=-1)


@pytest.mark.parametrize("field, value", [
    ("z_correlation", 1.5), ("z_correlation", -1.0),
    ("z_correlation", float("nan")),
    ("external_scale", 0.0), ("external_scale", 1.5),
    ("setup2_scale", -1.0), ("setup2_scale", float("nan")),
    ("theta", (-2.0, 0.5)), ("theta", (-2.0, 0.5, float("inf"))),
    ("nu", (-0.6, 1.2, 0.4)), ("nu", (-0.6, 1.2, 0.4, float("nan"))),
    ("alpha0", float("nan")), ("alpha2", float("inf")),
    ("alpha3", float("-inf")),
    ("theta", "abc"), ("theta", None), ("theta", (1, 2, True)),
    ("theta", {1: 0, 2: 0, 3: 0}), ("nu", ["a"] * 4),
    ("alpha0", "x"), ("alpha0", True), ("alpha2", None),
    pytest.param("alpha3", 10**400, id="alpha3-int-past-float-range"),
    ("external_scale", "x"), ("external_scale", True),
    ("setup2_scale", None), ("z_correlation", "x"), ("z_correlation", False),
])
def test_config_rejects_values_the_draw_cannot_use(field, value):
    with pytest.raises(sw.ValidationError, match=f"^{field} must "):
        sw.SimulationConfig(dag=1, setup=2, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("replications", 2.5),
    ("n_population", 5000.0), ("dag", 3.0), ("setup", True),
    ("replications", np.float64(3.0)), ("seed", "1"),
])
def test_config_integer_fields_take_only_integers(field, value):
    with pytest.raises(sw.ValidationError, match=f"^{field} must be an integer$"):
        sw.SimulationConfig(**{"dag": 3, "setup": 1, field: value})


def test_config_real_fields_take_integers_and_numpy_numbers():
    cfg = sw.SimulationConfig(dag=1, setup=2, theta=[-2, np.float32(0.5), 1],
                              nu=np.array([-0.6, 1.2, 0.4, 0.5]),
                              alpha0=np.float64(-0.8), alpha2=0,
                              external_scale=1, setup2_scale=np.float64(0.4),
                              z_correlation=np.int64(0))
    assert parameter_table(cfg)["alpha"][0] == -0.8


@pytest.mark.parametrize("convert", [list, tuple, np.array])
def test_config_holds_theta_and_nu_as_tuples_of_floats(convert):
    cfg = sw.SimulationConfig(dag=1, setup=1, theta=convert([-2, 0.5, 0.5]),
                              nu=convert([-0.6, 1.2, 0.4, 0.5]))
    default = sw.SimulationConfig(dag=1, setup=1)
    assert cfg == default and hash(cfg) == hash(default)
    for values in (cfg.theta, cfg.nu):
        assert type(values) is tuple
        assert all(type(value) is float for value in values)


def test_config_integer_fields_take_numpy_integers():
    cfg = sw.SimulationConfig(dag=np.int64(3), setup=np.int32(1),
                              n_population=np.int64(40), replications=np.int8(2),
                              seed=np.uint64(5))
    assert cfg.population_size == 40


def test_config_accepts_the_ends_of_its_ranges():
    cfg = sw.SimulationConfig(dag=1, setup=2, n_population=50,
                              z_correlation=-0.999, external_scale=1.0,
                              setup2_scale=1.0)
    pop = sw.generate_population(cfg)
    assert np.all((pop.pi_ext > 0.0) & (pop.pi_ext <= 1.0))


# ---------------------------------------------------------------------------
# population generation


def test_population_bit_reproducible_and_stream_independent():
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=42, n_population=5000)
    a = sw.generate_population(cfg, 3)
    b = sw.generate_population(cfg, 3)
    for field in ("z1", "z2", "w", "d", "s", "s_ext", "pi_true", "pi_ext"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = sw.generate_population(cfg, 4)
    assert not np.array_equal(a.z1, c.z1)


def test_population_invariants():
    cfg = sw.SimulationConfig(dag=4, setup=3, seed=1, n_population=20_000)
    pop = sw.generate_population(cfg, 0)
    for field in ("d", "s", "s_ext"):
        assert set(np.unique(getattr(pop, field))) <= {0.0, 1.0}
    assert np.all((pop.pi_true > 0) & (pop.pi_true < 1))
    assert np.all((pop.pi_ext > 0) & (pop.pi_ext < 1))
    corr = np.corrcoef(pop.z1, pop.z2)[0, 1]
    assert corr == pytest.approx(0.5, abs=0.02)


def test_dag1_w_is_independent_noise():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=7)
    pop = sw.generate_population(cfg, 0)
    for other in (pop.d, pop.z1, pop.z2):
        assert abs(np.corrcoef(pop.w, other)[0, 1]) <= 0.02


def test_prevalence_matches_numerical_integration():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=11)
    pop = sw.generate_population(cfg, 0)
    se = np.sqrt(GH_PREVALENCE * (1 - GH_PREVALENCE) / pop.n)
    assert abs(pop.d.mean() - GH_PREVALENCE) <= 3 * se


def test_setup2_scales_selection_and_population():
    cfg1 = sw.SimulationConfig(dag=3, setup=1, seed=5)
    cfg2 = sw.SimulationConfig(dag=3, setup=2, seed=5)
    assert cfg1.population_size == 50_000
    assert cfg2.population_size == 125_000
    pop1 = sw.generate_population(cfg1, 0)
    pop2 = sw.generate_population(cfg2, 0)
    ratio = pop2.s.mean() / pop1.s.mean()
    assert ratio == pytest.approx(0.4, abs=0.02)
    # comparable internal sample sizes by design
    assert 0.8 <= (pop2.s.sum() / pop1.s.sum()) <= 1.2


def reference_population(cfg, replication_index=0):
    """The single-stream draw: one Philox generator read in draw order."""
    key = np.array([cfg.seed, replication_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    n = cfg.population_size
    rho = cfg.z_correlation

    def standard_normal():
        return sw.normal_quantile(np.clip(rng.random(n), 1e-300, 1.0 - 1e-16))

    z1 = standard_normal()
    z2 = rho * z1 + np.sqrt(1.0 - rho**2) * standard_normal()
    t0, t1, t2 = cfg.theta
    d = (rng.random(n) < sw.expit(t0 + t1 * z1 + t2 * z2)).astype(float)
    g1, g2, g3 = cfg.gamma
    w = g1 * d + g2 * z1 + g3 * z2 + standard_normal()
    a4, a5 = cfg.interactions
    eta = (cfg.alpha0 + cfg.alpha1 * z2 + cfg.alpha2 * w + cfg.alpha3 * d
           + a4 * d * z2 + a5 * d * w)
    pi_true = cfg.selection_scale * sw.expit(eta)
    s = (rng.random(n) < pi_true).astype(float)
    v0, v1, v2, v3 = cfg.nu
    pi_ext = cfg.external_scale * sw.expit(v0 + v1 * z2 + v2 * w + v3 * d)
    s_ext = (rng.random(n) < pi_ext).astype(float)
    return sw.Population(z1, z2, w, d, s, s_ext, pi_true, pi_ext)


POPULATION_FIELDS = ("z1", "z2", "w", "d", "s", "s_ext", "pi_true", "pi_ext")


def population_bits(pop):
    return [getattr(pop, name).tobytes() for name in POPULATION_FIELDS]


@pytest.mark.parametrize("n", [1, 3, 4, 5, 1000])
@pytest.mark.parametrize("block_rows", [1, 3, 4, 5, 7])
def test_blocked_draw_matches_the_single_stream_draw_bit_for_bit(
        monkeypatch, n, block_rows):
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", block_rows)
    for k, (seed, index) in enumerate([(0, 0), (2**63 - 1, 3),
                                       (2**63 - 2, 2**40 + 1)]):
        dag, setup = 1 + (n + k) % 4, 1 + (block_rows + k) % 3
        cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=seed,
                                  n_population=n)
        assert (population_bits(sw.generate_population(cfg, index))
                == population_bits(reference_population(cfg, index)))


@pytest.mark.parametrize("n", [1, sim_mod.POPULATION_BLOCK_ROWS - 1,
                               sim_mod.POPULATION_BLOCK_ROWS + 1, 125_000])
def test_population_draw_raises_no_floating_point_flag(n):
    cfg = sw.SimulationConfig(dag=4, setup=3, seed=5, n_population=n)
    with np.errstate(all="raise"):
        pop = sw.generate_population(cfg, 1)
    assert population_bits(pop) == population_bits(reference_population(cfg, 1))


@pytest.mark.parametrize("n", [1, 7, 1001])
def test_stream_positions_read_the_single_stream(n):
    key = np.array([2**63 - 7, 12], dtype=np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key)).random(6 * n)
    starts = {0, 1, 2, 3, 4, 5, 6, 7, n, n + 1, 2 * n + 3, 5 * n - 1,
              6 * n - 1}
    for start in sorted(k for k in starts if k < 6 * n):
        for m in (1, 2, 5, 9):
            m = min(m, 6 * n - start)
            assert (sim_mod._uniforms(key, start, m).tobytes()
                    == stream[start:start + m].tobytes()), (start, m)


@pytest.mark.parametrize("draw", [
    sw.generate_population,
    lambda cfg, index: sw.run_replication(cfg, index, ["unweighted"]),
], ids=["generate_population", "run_replication"])
@pytest.mark.parametrize("index", [1.9, 1.5, np.float64(1.0), -1, 2**64, True,
                                   "1", None])
def test_a_replication_index_must_be_a_64_bit_unsigned_integer(draw, index):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=3, n_population=500)
    message = (r"^replication_index must be an integer in \[0, 2\*\*64\), "
               f"got {re.escape(repr(index))}$")
    with pytest.raises(sw.ValidationError, match=message):
        draw(cfg, index)


def test_a_replication_index_takes_the_ends_of_its_range_and_numpy_integers():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=3, n_population=500)
    assert sw.generate_population(cfg, 2**64 - 1).n == 500
    for index in (np.int64(1), np.uint64(1)):
        assert np.array_equal(sw.generate_population(cfg, index).z1,
                              sw.generate_population(cfg, 1).z1)


# ---------------------------------------------------------------------------
# binned log selection-ratio diagnostics


def test_r_offset_exact_on_discrete_mini_population():
    # Binary z1, z2, w: the 2x2 grid bins coincide with the covariate cells,
    # so the binned estimator must equal direct enumeration exactly.
    rng = np.random.default_rng(13)
    n = 4000
    z1 = rng.integers(0, 2, n).astype(float)
    z2 = rng.integers(0, 2, n).astype(float)
    w = rng.integers(0, 2, n).astype(float)
    d = (rng.random(n) < 0.3 + 0.2 * z1).astype(float)
    p_s = 0.2 + 0.15 * z2 + 0.1 * w + 0.25 * d
    s = (rng.random(n) < p_s).astype(float)
    pop = sw.Population(z1, z2, w, d, s, np.zeros(n), p_s,
                        np.full(n, 0.5))
    result = estimate_r_offset_mc(pop, z1_cutoffs=[0.5], z2_cutoffs=[0.5],
                                  min_class_count=1)
    for i in range(result.log_ratio.size):
        cell = ((z1 > 0.5) == result.z1_bin[i]) & ((z2 > 0.5) == result.z2_bin[i])
        p1 = s[cell & (d == 1)].mean()
        p0 = s[cell & (d == 0)].mean()
        assert result.log_ratio[i] == pytest.approx(np.log(p1 / p0), abs=1e-12)


def test_r_offset_skips_sparse_bins():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=3, n_population=900)
    pop = sw.generate_population(cfg, 0)
    result = estimate_r_offset_mc(pop, n_bins=(5, 5), min_class_count=50)
    assert len(result.skipped) > 0
    assert all(isinstance(item, SparseBinError) for item in result.skipped)


# ---------------------------------------------------------------------------
# replication and study plumbing


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the replication sees as usable."""
    def set_cpus(count):
        monkeypatch.setattr(sim_mod, "_usable_cpus", lambda: count)
    return set_cpus


@pytest.fixture
def fitted_by(monkeypatch, tmp_path):
    """Stamp each result with the process id and numpy error state it was
    fitted under (``pid``, ``errstate``), and pick who fits: with
    ``fitted_by("workers", methods)`` the caller, once past the draw's
    barrier, waits until workers have taken every method; with
    ``fitted_by("caller", methods)`` each worker waits there until the
    caller has; and with ``fitted_by("both", methods)`` the caller and a
    worker each fit at least one (more workers than methods would leave
    none for the caller).  Call it before the workers are forked, so that
    they run the stamps too."""
    caller = os.getpid()
    markers = tmp_path / "markers"
    markers.mkdir()

    def wait_for(*names):
        deadline = time.monotonic() + 60
        while not all((markers / name).exists() for name in names):
            if time.monotonic() > deadline:
                raise AssertionError(f"no {names} within 60 s")
            time.sleep(0.001)

    def install(mode, methods):
        fit_one = sim_mod._fit_one
        draw_blocks = sim_mod._draw_blocks
        source = sim_mod.PopulationSource

        def stamped(method, src):
            in_caller = os.getpid() == caller
            taker = "the caller" if in_caller else "a worker"
            (markers / f"{taker} took {method}").touch()
            if mode == "both":
                if in_caller:
                    (markers / "the caller took one").touch()
                    wait_for("a worker fitted one")
                else:
                    wait_for("the caller took one")
            result = fit_one(method, src)
            result.pid, result.errstate = os.getpid(), np.geterr()
            if not in_caller:
                (markers / "a worker fitted one").touch()
            return result

        def drawing(*args, **kwargs):
            # Every worker has sent its results of the last replication
            # before the caller draws the next one, and no method starts
            # before the caller's share is drawn: the last markers go.
            if os.getpid() == caller:
                for marker in markers.iterdir():
                    marker.unlink()
            return draw_blocks(*args, **kwargs)

        def held(population):
            in_caller = os.getpid() == caller
            if (mode, in_caller) in (("workers", True), ("caller", False)):
                other = "a worker" if in_caller else "the caller"
                wait_for(*(f"{other} took {method}" for method in methods))
            return source(population)

        monkeypatch.setattr(sim_mod, "_fit_one", stamped)
        monkeypatch.setattr(sim_mod, "_draw_blocks", drawing)
        monkeypatch.setattr(sim_mod, "PopulationSource", held)

    return install


def worker_pids():
    return [worker.pid for worker in sim_mod._POOL.workers]


def test_run_replication_returns_all_requested_methods():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=6000)
    results = sw.run_replication(cfg, 0, methods=sw.METHODS)
    assert set(results) == set(sw.METHODS)
    # In the no-dependence scenario every method is unbiased, so each
    # single-replication estimate sits within 3 standard errors of truth.
    for res in results.values():
        assert not res.failed
        assert res.model.vcov is not None
        assert np.all(np.diag(res.model.vcov) >= 0)
        se = np.sqrt(np.diag(res.model.vcov))
        gap = np.abs(res.model.coefficients[1:] - np.array(cfg.theta)[1:])
        assert np.all(gap <= 3 * se[1:]), res.method


@pytest.fixture(scope="module")
def dag3_source():
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=5, n_population=20_000)
    return sim_mod.PopulationSource(sw.generate_population(cfg, 0))


def _sandwich(kind, src, theta, weight_set):
    """The variance of ``theta`` by the sandwich ``kind``, called directly."""
    if kind == "two-step PL":
        mask, internal_pi_ext = src.internal_overlap()
        return sw.vcov_pl(theta, weight_set.alpha_hat, src.disease_design,
                          src.outcome, src.selection_design,
                          *src.external_sample, src.n_population,
                          internal_in_external=mask,
                          internal_pi_ext=internal_pi_ext)
    if kind == "two-step CL":
        return sw.vcov_cl(theta, weight_set.alpha_hat, src.disease_design,
                          src.outcome, src.selection_design, src.n_population)
    return sw.vcov_known_weights(theta, src.disease_design, src.outcome,
                                 weight_set.pi_hat, src.n_population)


@pytest.mark.parametrize("method, kind", [
    ("unweighted", "fixed"), ("pl", "two-step PL"), ("sr", "fixed"),
    ("ps", "fixed"), ("cl", "two-step CL"), ("oracle_weights", "fixed")])
def test_a_methods_weight_set_picks_its_sandwich(dag3_source, method, kind):
    src = dag3_source
    weight_set = sim_mod.METHOD_TABLE[method](src)
    if method == "unweighted":
        assert weight_set.method == "unweighted"
        ones = np.ones(src.outcome.size)
        assert weight_set.pi_hat.tobytes() == ones.tobytes()
    model = sim_mod.fit_method(src, weight_set)
    fit = sw.fit_weighted_logistic(src.disease_design, src.outcome,
                                   weight_set.pi_hat)
    assert model.coefficients.tobytes() == fit.coefficients.tobytes()
    expected = _sandwich(kind, src, model.coefficients, weight_set)
    assert model.vcov.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["pl", "cl"])
def test_a_post_processed_weight_set_takes_the_fixed_weight_sandwich(
        dag3_source, method):
    src = dag3_source
    weight_set = sim_mod.METHOD_TABLE[method](src)
    post = w_mod.estimated_weight_set(
        1.0 / sw.winsorize_weights(weight_set.weights, 0.05, 0.95),
        "post-processed")
    model = sim_mod.fit_method(src, post)
    expected = _sandwich("fixed", src, model.coefficients, post)
    assert model.vcov.tobytes() == expected.tobytes()


def test_run_replication_rejects_unknown_method():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    with pytest.raises(sw.ValidationError):
        sw.run_replication(cfg, 0, methods=("banana",))


def test_run_replication_rejects_a_repeated_method():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    with pytest.raises(sw.ValidationError, match="^method 'cl' is repeated$"):
        sw.run_replication(cfg, 0, methods=("cl", "unweighted", "cl"))


def test_an_empty_internal_sample_fails_every_method_typed():
    cfg = sw.SimulationConfig(dag=1, setup=1, n_population=3, seed=0)
    assert not sw.generate_population(cfg, 13).s.any()
    results = sw.run_replication(cfg, 13, methods=sw.METHODS)
    assert list(results) == list(sw.METHODS)
    assert all(res.failed for res in results.values())


@pytest.mark.parametrize("where", ["caller", "workers"])
def test_run_replication_captures_method_failures(monkeypatch, cpus, fitted_by,
                                                  where):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)

    def boom(*args, **kwargs):
        raise sw.NonConvergenceError("forced failure")

    monkeypatch.setattr(sim_mod, "estimate_weights_pl", boom)
    # In the caller alone, or every method in a worker: the failure stays in
    # pl's result either way.
    cpus(1 if where == "caller" else len(sw.METHODS))
    fitted_by(where, sw.METHODS)
    results = sw.run_replication(cfg, 0, methods=sw.METHODS)
    in_caller = {results[m].pid == os.getpid() for m in sw.METHODS}
    assert in_caller == {where == "caller"}
    assert not any(results[m].failed for m in sw.METHODS if m != "pl")
    assert results["pl"].failed
    assert "forced failure" in results["pl"].error


def test_run_study_aborts_when_all_replications_fail(monkeypatch):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=4000,
                              replications=2)

    def boom(*args, **kwargs):
        raise sw.NonConvergenceError("forced failure")

    monkeypatch.setattr(sim_mod, "estimate_weights_pl", boom)
    with pytest.raises(sw.AllReplicationsFailedError):
        sw.run_study(cfg, methods=("unweighted", "pl"), parallelism=1)


def test_run_study_rejects_a_repeated_method():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=4000,
                              replications=2)
    with pytest.raises(sw.ValidationError, match="^method 'pl' is repeated$"):
        sw.run_study(cfg, methods=("unweighted", "pl", "cl", "pl"))


@pytest.mark.parametrize("parallelism", [0, -4])
def test_run_study_rejects_parallelism_below_one(parallelism):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=4000,
                              replications=2)
    with pytest.raises(sw.ValidationError,
                       match=f"^parallelism must be at least 1, got {parallelism}$"):
        sw.run_study(cfg, methods=("unweighted",), parallelism=parallelism)


@pytest.mark.parametrize("parallelism", [1.5, "2", True, np.float64(2.0)])
def test_run_study_takes_only_an_integer_parallelism(parallelism):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=4000,
                              replications=2)
    message = ("^parallelism must be an integer, "
               f"got {re.escape(repr(parallelism))}$")
    with mock.patch.object(sim_mod, "_run_replication_task") as task:
        with pytest.raises(sw.ValidationError, match=message):
            sw.run_study(cfg, methods=("unweighted",), parallelism=parallelism)
    task.assert_not_called()


def test_run_study_deterministic_across_parallelism():
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=9, n_population=4000,
                              replications=6)
    serial = sw.run_study(cfg, methods=("unweighted", "pl", "cl"),
                          parallelism=1)
    parallel = sw.run_study(cfg, methods=("unweighted", "pl", "cl"),
                            parallelism=2)
    for row_a, row_b in zip(serial.rows, parallel.rows):
        assert row_a == row_b


def test_run_study_unweighted_rmse_is_exactly_one():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=4, n_population=4000,
                              replications=5)
    study = sw.run_study(cfg, methods=("unweighted", "cl"), parallelism=1)
    assert study.metric("unweighted", "theta1").rmse_relative == 1.0
    assert study.metric("unweighted", "theta2").rmse_relative == 1.0
    for row in study.rows:
        assert 0.0 <= row.coverage <= 1.0


# ---------------------------------------------------------------------------
# shared replication: the caller and worker processes share the methods


def replication_bits(results):
    """Per method: the error text, or every number the study keeps."""
    bits = {}
    for method, res in results.items():
        if res.failed:
            bits[method] = res.error
            continue
        ws = res.weight_set
        alpha = b"" if ws.alpha_hat is None else ws.alpha_hat.tobytes()
        bits[method] = (res.model.coefficients.tobytes(),
                        res.model.vcov.tobytes(), ws.pi_hat.tobytes(), alpha,
                        ws.diagnostics.get("clamped_low", 0),
                        ws.diagnostics.get("clamped_high", 0))
    return bits


@pytest.mark.parametrize("dag", [1, 2, 3, 4])
@pytest.mark.parametrize("setup", [1, 2, 3])
def test_shared_replication_matches_the_serial_one_bit_for_bit(
        dag, setup, fitted_by):
    cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=5, n_population=5000)
    serial = sim_mod._replicate(cfg, 1, sw.METHODS, 0)
    assert not worker_pids()
    # Five workers on fewer cores beside the caller: a method taken twice or
    # not at all, or a result lost or misplaced, would show.
    fitted_by("both", sw.METHODS)
    shared = sim_mod._replicate(cfg, 1, sw.METHODS, len(sw.METHODS) - 1)
    assert len(worker_pids()) == len(sw.METHODS) - 1
    assert {res.pid for res in shared.values()} - {os.getpid()}
    assert os.getpid() in {res.pid for res in shared.values()}
    assert list(shared) == list(sw.METHODS)
    assert replication_bits(shared) == replication_bits(serial)


def test_workers_fit_under_the_callers_numpy_error_state(fitted_by):
    methods = ("unweighted", "cl")
    fitted_by("both", methods)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    # The workers are forked under the default state, then take the
    # caller's state at each replication.
    sim_mod._replicate(cfg, 0, methods, 1)
    with np.errstate(divide="ignore", over="raise", invalid="print"):
        caller = np.geterr()
        results = sim_mod._replicate(cfg, 0, methods, 1)
    assert {res.pid for res in results.values()} == {os.getpid(),
                                                    *worker_pids()}
    assert all(res.errstate == caller for res in results.values())
    assert not any(res.failed for res in results.values())


@pytest.mark.parametrize("helpers", [0, 2])
@pytest.mark.parametrize("order", [("pl", "unweighted", "cl"),
                                   ("cl", "unweighted", "pl")])
def test_the_first_listed_method_error_propagates(monkeypatch, fitted_by,
                                                  helpers, order):
    # pl raises late, so with workers cl's error reaches the caller first.
    def late_pl(*args, **kwargs):
        time.sleep(0.2)
        raise RuntimeError("pl defect")

    def cl_defect(*args, **kwargs):
        raise KeyError("cl defect")

    monkeypatch.setattr(sim_mod, "estimate_weights_pl", late_pl)
    monkeypatch.setattr(sim_mod, "estimate_weights_cl", cl_defect)
    if helpers:
        fitted_by("workers", order)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    expected = RuntimeError if order[0] == "pl" else KeyError
    with pytest.raises(expected, match=f"{order[0]} defect") as raised:
        sim_mod._replicate(cfg, 0, order, helpers)
    # A worker's exception carries the worker's traceback.
    notes = "".join(getattr(raised.value, "__notes__", []))
    assert ("Raised in worker process" in notes) == bool(helpers)
    assert (f"in {'late_pl' if order[0] == 'pl' else 'cl_defect'}" in notes
            ) == bool(helpers)


def test_an_exception_that_cannot_be_pickled_crosses_as_a_runtime_error(
        monkeypatch, fitted_by):
    class LocalDefect(Exception):
        """Defined in a function, so pickle cannot find it."""

    def defect(*args, **kwargs):
        raise LocalDefect("no way back")

    monkeypatch.setattr(sim_mod, "estimate_weights_cl", defect)
    methods = ("cl", "unweighted", "pl")
    fitted_by("workers", methods)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    with pytest.raises(RuntimeError) as raised:
        sim_mod._replicate(cfg, 0, methods, 1)
    assert str(raised.value) == f"{LocalDefect.__qualname__}: no way back"
    assert "in defect" in "".join(raised.value.__notes__)


@pytest.mark.parametrize("rebind", ["module binding", "METHOD_TABLE entry"])
def test_a_rebinding_after_the_fork_reaches_every_method(monkeypatch, rebind):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    methods = ("unweighted", "pl", "cl")
    before = sim_mod._replicate(cfg, 0, methods, 1)
    workers = worker_pids()
    assert workers
    calls = []

    def rebound(*args, **kwargs):
        calls.append(args)
        raise sw.NonConvergenceError("rebound")

    with monkeypatch.context() as patch:
        if rebind == "module binding":
            patch.setattr(sim_mod, "estimate_weights_cl", rebound)
        else:
            patch.setitem(sim_mod.METHOD_TABLE, "cl", rebound)
        assert sim_mod._serving_workers(1) == []
        after = sim_mod._replicate(cfg, 0, methods, 1)
    # The rebound estimator ran in this process, and only it changed.
    assert len(calls) == 1 and after["cl"].error == "NonConvergenceError: rebound"
    after.pop("cl"), before.pop("cl")
    assert replication_bits(after) == replication_bits(before)
    # With the binding restored, the same workers serve again.
    assert [w.pid for w in sim_mod._serving_workers(1)] == workers


def test_a_module_imported_after_the_fork_does_not_stop_the_workers():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    sim_mod._replicate(cfg, 0, ("unweighted", "cl"), 1)
    package = vars(sys.modules["selweight"])
    name = "late_module"
    assert name not in package
    package[name] = object()  # as an import binds a submodule
    try:
        assert sim_mod._serving_workers(1)
    finally:
        del package[name]


@pytest.mark.parametrize("case", ["one usable CPU", "one method",
                                  "another thread alive", "not Linux"])
def test_no_worker_where_none_can_serve(monkeypatch, cpus, case):
    cpus(1 if case == "one usable CPU" else 8)
    methods = ("cl",) if case == "one method" else sw.METHODS
    if case == "not Linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if case == "another thread alive":
        thread.start()
    try:
        results = sw.run_replication(cfg, 0, methods=methods)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(30)
    assert not thread.is_alive()
    assert not worker_pids()
    assert list(results) == list(methods)


def test_the_worker_count_is_one_per_further_cpu_and_method(cpus):
    cpus(3)
    assert sim_mod._helper_count(sw.METHODS) == 2
    assert sim_mod._helper_count(("pl", "cl")) == 1
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    sw.run_replication(cfg, 0, methods=sw.METHODS)
    assert len(worker_pids()) == 2


@pytest.fixture
def drawn(monkeypatch):
    """The populations this process draws its share of, in draw order; a
    shared replication's is whole once past the barrier."""
    populations = []
    draw_blocks = sim_mod._draw_blocks

    def recorded(cfg, key, pop, *share):
        populations.append(pop)
        return draw_blocks(cfg, key, pop, *share)

    monkeypatch.setattr(sim_mod, "_draw_blocks", recorded)
    return populations


@pytest.mark.parametrize("dag, setup", [(1, 3), (3, 2), (4, 1)])
def test_shared_draw_in_small_blocks_matches_the_serial_one_bit_for_bit(
        monkeypatch, fitted_by, drawn, dag, setup):
    cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=2**63 - 3,
                              n_population=5000)
    serial = sim_mod._replicate(cfg, 4, sw.METHODS, 0)
    # 5000 rows in 20 blocks of 250, in the caller and in each worker.
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", 257)
    fitted_by("both", sw.METHODS)
    shared = sim_mod._replicate(cfg, 4, sw.METHODS, 2)
    assert population_bits(drawn[1]) == population_bits(drawn[0])
    assert (population_bits(drawn[0])
            == population_bits(reference_population(cfg, 4)))
    assert len({res.pid for res in shared.values()}) > 1
    assert replication_bits(shared) == replication_bits(serial)


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_failed_share_of_the_draw_fails_every_method_and_frees_the_barrier(
        monkeypatch, where):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=3, n_population=5000)
    methods = ("unweighted", "pl", "cl")
    # Five blocks, so that each of the three processes draws some.
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", 1000)
    draw_blocks = sim_mod._draw_blocks
    failing_rank = 0 if where == "caller" else 2

    def faulty(cfg, key, pop, rank=0, ranks=1):
        if key[1] == 13 and rank == failing_rank:
            raise RuntimeError("draw defect")
        return draw_blocks(cfg, key, pop, rank, ranks)

    monkeypatch.setattr(sim_mod, "_draw_blocks", faulty)
    serial = sim_mod._replicate(cfg, 14, methods, 0)
    outcomes = sim_mod._share(sim_mod._serving_workers(2), cfg, 13, methods)
    workers = worker_pids()
    assert len(workers) == 2 and list(outcomes) == [0, 1, 2]
    (failure,) = {id(o): o for o in outcomes.values()}.values()
    assert type(failure) is RuntimeError and str(failure) == "draw defect"
    notes = "".join(getattr(failure, "__notes__", []))
    assert ("Raised in worker process" in notes) == (where == "worker")
    with pytest.raises(RuntimeError) as raised:
        sim_mod._replicate(cfg, 13, methods, 2)
    assert str(raised.value) == "draw defect"
    # Every process passed the barrier and left no task behind: the same
    # workers serve the next replication, with the serial bits.
    again = sim_mod._replicate(cfg, 14, methods, 2)
    assert worker_pids() == workers
    assert replication_bits(again) == replication_bits(serial)


def arrays_in(value):
    """Every numpy array reachable from ``value`` through dataclass fields,
    dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays_in(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_in(item)


def test_kept_results_keep_their_bytes_and_view_no_shared_file(fitted_by):
    # The caller fits every method, on its views of the shared file.
    fitted_by("caller", sw.METHODS)
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=4, n_population=5000)
    kept = sim_mod._replicate(cfg, 0, sw.METHODS, 1)
    assert worker_pids()
    assert {res.pid for res in kept.values()} == {os.getpid()}
    before = replication_bits(kept)
    for index in (1, 2):
        sim_mod._replicate(cfg, index, sw.METHODS, 1)
    assert replication_bits(kept) == before
    shared = np.frombuffer(sim_mod._POOL.population.mapping, dtype=np.uint8)
    arrays = list(arrays_in(kept))
    assert len(arrays) > 3 * len(sw.METHODS)
    assert not any(np.shares_memory(array, shared) for array in arrays)


def test_the_population_file_grows_and_a_smaller_population_reuses_it(
        monkeypatch):
    # Blocks of 1000 rows, so that the caller and both workers draw some.
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", 1000)
    methods = ("unweighted", "pl", "cl")
    sizes, mappings = [], []
    for n in (5000, 20_000, 5000):
        cfg = sw.SimulationConfig(dag=2, setup=3, seed=6, n_population=n)
        serial = sim_mod._replicate(cfg, 3, methods, 0)
        shared = sim_mod._replicate(cfg, 3, methods, 2)
        assert len(worker_pids()) == 2
        assert replication_bits(shared) == replication_bits(serial)
        population = sim_mod._POOL.population
        sizes.append(os.fstat(population.fd).st_size)
        mappings.append(population.mapping)
    # Eight float64 columns of n rows.
    assert sizes == [64 * 5000, 64 * 20_000, 64 * 20_000]
    assert mappings[1] is not mappings[0] and mappings[2] is mappings[1]
    # Once the workers are closed and nothing views them, both are unmapped.
    starts = {ctypes.addressof(mapping) for mapping in mappings}
    del mappings, population
    sim_mod._close_workers()
    with open("/proc/self/maps") as maps:
        mapped = {int(line.split("-")[0], 16) for line in maps}
    assert not starts & mapped


def test_population_source_gathers_the_masked_rows():
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=8, n_population=5000)
    pop = sw.generate_population(cfg, 0)
    src = sim_mod.PopulationSource(pop)
    internal, external = pop.s == 1.0, pop.s_ext == 1.0
    assert np.array_equal(src.internal, np.flatnonzero(internal))
    assert np.array_equal(src.external, np.flatnonzero(external))
    disease = np.column_stack([np.ones(int(internal.sum())), pop.z1[internal],
                               pop.z2[internal]])
    selection = np.column_stack([np.ones(int(internal.sum())), pop.z2[internal],
                                 pop.w[internal], pop.d[internal]])
    x_ext, pi_ext = src.external_sample
    assert src.disease_design.matrix.tobytes() == disease.tobytes()
    assert src.disease_design.column_names == ["intercept", "z1", "z2"]
    assert src.selection_design.matrix.tobytes() == selection.tobytes()
    assert x_ext.matrix.tobytes() == np.column_stack(
        [np.ones(int(external.sum())), pop.z2[external], pop.w[external],
         pop.d[external]]).tobytes()
    for design in (src.selection_design, x_ext):
        assert design.column_names == ["intercept", "z2", "w", "d"]
    assert pi_ext.tobytes() == pop.pi_ext[external].tobytes()
    assert src.outcome.tobytes() == pop.d[internal].tobytes()
    internal_in_external, external_in_internal = src.overlap()
    assert np.array_equal(internal_in_external, external[internal])
    assert np.array_equal(external_in_internal, internal[external])
    mask, internal_pi_ext = src.internal_overlap()
    assert mask is internal_in_external
    assert internal_pi_ext.tobytes() == pop.pi_ext[internal].tobytes()


# ---------------------------------------------------------------------------
# worker lifecycle: a worker lives until its interpreter exits, dies loudly,
# and belongs to the process that forked it


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


LINUX_ONLY = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="workers are forked on Linux only")


@LINUX_ONLY
def test_a_child_interpreter_leaves_no_worker_behind():
    # The script's own exit handler, registered before selweight's, runs
    # after it and finds the worker already reaped.
    script = (
        "import atexit, os\n"
        "def reaped():\n"
        "    try:\n"
        "        os.waitpid(pid, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('reaped')\n"
        "atexit.register(reaped)\n"
        "import selweight as sw\n"
        "from selweight import simulation as sim\n"
        "cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)\n"
        "sim._replicate(cfg, 0, ('unweighted', 'cl'), 1)\n"
        "(pid,) = [w.pid for w in sim._POOL.workers]\n"
        "print(pid)\n")
    start = time.monotonic()
    # The worker holds the child's stdout, so the run ends only when both
    # the child and its worker have exited.
    done = subprocess.run([sys.executable, "-c", script], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    pid, reaped = done.stdout.split()
    assert reaped == "reaped" and _gone(int(pid))
    assert elapsed < 60


@LINUX_ONLY
def test_an_interrupted_replication_stops_its_workers(monkeypatch, fitted_by):
    class Interrupted(Exception):
        pass

    def stuck(*args, **kwargs):
        time.sleep(120)

    monkeypatch.setattr(sim_mod, "estimate_weights_cl", stuck)
    methods = ("unweighted", "cl")
    fitted_by("workers", methods)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(Interrupted):
            sim_mod._replicate(cfg, 0, methods, 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # The stuck worker was killed and reaped, not waited for.
    assert time.monotonic() - start < 60
    assert not worker_pids()


@LINUX_ONLY
@pytest.mark.parametrize("death", ["killed while idle", "exits in its draw",
                                   "killed at the barrier",
                                   "exits mid-method"])
def test_a_dead_worker_raises_and_the_next_replication_forks_a_new_one(
        monkeypatch, fitted_by, death):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    methods = ("unweighted", "cl")
    serial = sim_mod._replicate(cfg, 0, methods, 0)
    caller = os.getpid()
    estimate_cl = sim_mod.estimate_weights_cl
    draw_blocks = sim_mod._draw_blocks

    def exits(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(7)
        return estimate_cl(*args, **kwargs)

    def exits_in_draw(*args):
        if os.getpid() != caller:
            os._exit(7)
        return draw_blocks(*args)

    def stuck_in_draw(*args):
        if os.getpid() != caller:
            time.sleep(120)
        return draw_blocks(*args)

    def kill_the_worker(signum, frame):
        os.kill(worker_pids()[0], signal.SIGKILL)

    message = "ended with exit code 7"
    if death == "exits mid-method":
        monkeypatch.setattr(sim_mod, "estimate_weights_cl", exits)
        fitted_by("workers", methods)
    elif death == "exits in its draw":
        monkeypatch.setattr(sim_mod, "_draw_blocks", exits_in_draw)
    else:
        message = f"ended with exit code -{signal.SIGKILL.value}"
    if death == "killed while idle":
        sim_mod._replicate(cfg, 0, methods, 1)
        os.kill(worker_pids()[0], signal.SIGKILL)
        # Wait for its death without reaping it.
        os.waitid(os.P_PID, worker_pids()[0], os.WEXITED | os.WNOWAIT)
    elif death == "killed at the barrier":
        # The worker never finishes its share; the caller, which drew its
        # own in a few ms, waits at the barrier when the alarm kills it.
        monkeypatch.setattr(sim_mod, "_draw_blocks", stuck_in_draw)
        previous = signal.signal(signal.SIGALRM, kill_the_worker)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.monotonic()
    try:
        with pytest.raises(ChildProcessError,
                           match=f"^worker process \\d+ {message}; "
                                 "replication 0 did not finish$") as raised:
            sim_mod._replicate(cfg, 0, methods, 1)
    finally:
        if death == "killed at the barrier":
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 60
    assert not worker_pids()
    dead = int(re.search(r"process (\d+)", str(raised.value))[1])
    monkeypatch.undo()
    again = sim_mod._replicate(cfg, 0, methods, 1)
    assert worker_pids() and worker_pids()[0] != dead
    assert replication_bits(again) == replication_bits(serial)


@LINUX_ONLY
def test_a_worker_ignores_the_interrupt_its_caller_handles():
    # A terminal's Ctrl-C reaches the whole process group.
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    methods = ("unweighted", "cl")
    first = sim_mod._replicate(cfg, 0, methods, 1)
    (pid,) = worker_pids()
    os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    again = sim_mod._replicate(cfg, 0, methods, 1)
    assert worker_pids() == [pid]
    assert replication_bits(again) == replication_bits(first)


def _caller_pipe_ends():
    """(descriptor, device, inode) of each of this process's ends of the
    task pipe and of the workers' connections, and of its population
    file."""
    pool = sim_mod._POOL
    fds = [*pool.tasks, pool.population.fd]
    fds += [worker.connection.fileno() for worker in pool.workers]
    return [(fd, os.fstat(fd).st_dev, os.fstat(fd).st_ino) for fd in fds]


def _holds_none_of(ends):
    """Whether this process holds none of the files in ``ends`` at any
    descriptor, a mapping's own included, and has no workers of its own."""
    files = {(device, inode) for _, device, inode in ends}
    for fd in os.listdir("/proc/self/fd"):
        try:
            held = os.stat(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if (held.st_dev, held.st_ino) in files:
            return False
    pool = sim_mod._POOL
    return not pool.workers and pool.tasks is None and pool.population is None


@LINUX_ONLY
def test_a_forked_child_forgets_its_parents_workers():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    sim_mod._replicate(cfg, 0, ("unweighted", "cl"), 1)
    # Arrays that view the mapping across the fork, as a traceback kept
    # from a replication holds them, must not keep the file open either.
    views = sim_mod._POOL.population.population(cfg.population_size)
    ends = _caller_pipe_ends()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if _holds_none_of(ends) else 1)
    assert os.waitpid(pid, 0)[1] == 0
    del views
    # The parent's workers still serve it.
    assert _caller_pipe_ends() == ends
    assert sim_mod._replicate(cfg, 0, ("unweighted", "cl"), 1)


def _checked_in_pool(task, ends, index):
    """Run a study's replication ``task`` in a pool worker, which must hold
    none of the caller's worker pipes or its population file and fork no
    worker of its own."""
    if not _holds_none_of(ends):
        raise AssertionError("a pool worker holds its parent's worker pipes "
                             "or population file")
    result = task(index)
    if sim_mod._POOL.workers:
        raise AssertionError("a pool worker forked a worker")
    return result


@LINUX_ONLY
def test_study_pool_workers_forget_the_callers_workers_and_fork_none(
        monkeypatch):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=9, n_population=4000,
                              replications=3)
    methods = ("unweighted", "pl", "cl")
    sim_mod._replicate(cfg, 0, methods, 1)
    ends = _caller_pipe_ends()

    class CheckedPool(ProcessPoolExecutor):
        def map(self, fn, tasks, chunksize=1):
            return super().map(partial(_checked_in_pool, fn, ends), tasks,
                               chunksize=chunksize)

    monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", CheckedPool)
    pooled = sw.run_study(cfg, methods=methods, parallelism=2)
    monkeypatch.undo()
    assert _caller_pipe_ends() == ends
    assert pooled.rows == sw.run_study(cfg, methods=methods,
                                       parallelism=1).rows


class TwoArgumentDefect(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@LINUX_ONLY
@pytest.mark.parametrize("defect, expected, text", [
    (partial(TwoArgumentDefect, "defect", "cl"), RuntimeError,
     "TwoArgumentDefect: defect in cl"),
    (partial(KeyError, "cl defect"), KeyError, "'cl defect'")])
def test_a_study_pool_exception_reaches_the_caller_as_a_workers_does(
        monkeypatch, defect, expected, text):
    def raising(src):
        raise defect()

    monkeypatch.setitem(sim_mod.METHOD_TABLE, "cl", raising)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=3000,
                              replications=2)
    # BrokenProcessPool is a RuntimeError too, so the type is compared.
    with pytest.raises(Exception) as raised:
        sw.run_study(cfg, methods=("unweighted", "cl"), parallelism=2)
    assert type(raised.value) is expected and str(raised.value) == text
    notes = "".join(getattr(raised.value, "__notes__", []))
    assert "Raised in worker process" in notes and "in raising" in notes


@LINUX_ONLY
def test_a_study_starts_no_more_pool_processes_than_replications(monkeypatch):
    sizes = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", CountedPool)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=3000,
                              replications=2)
    methods = ("unweighted", "cl")
    pooled = sw.run_study(cfg, methods=methods, parallelism=4)
    monkeypatch.undo()
    assert sizes == [2]
    assert pooled.rows == sw.run_study(cfg, methods=methods,
                                       parallelism=1).rows


@LINUX_ONLY
def test_a_worker_keeps_only_its_pipes_and_descriptors_0_to_2(tmp_path):
    with open(tmp_path / "open during the fork", "w"):
        cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
        sim_mod._replicate(cfg, 0, ("unweighted", "cl"), 1)
    worker = sim_mod._POOL.workers[0]
    fd_dir = Path(f"/proc/{worker.pid}/fd")
    kept = {int(fd): os.readlink(fd_dir / fd) for fd in os.listdir(fd_dir)}
    # The task pipe's ends share one inode; the worker's end of its
    # connection is a socket of its own, not the caller's end.
    task_pipe = f"pipe:[{os.fstat(sim_mod._POOL.tasks[0]).st_ino}]"
    caller_end = f"socket:[{os.fstat(worker.connection.fileno()).st_ino}]"
    population = os.readlink(f"/proc/self/fd/{sim_mod._POOL.population.fd}")
    assert population.startswith("/memfd:selweight-population")
    others = [t for fd, t in kept.items()
              if fd > 2 and t not in (task_pipe, population)]
    assert {0, 1, 2} <= set(kept) and task_pipe in kept.values()
    assert len(others) == 1 and others[0].startswith("socket:[")
    assert others[0] != caller_end
    # One descriptor of the population file, which the worker has mapped.
    assert list(kept.values()).count(population) == 1
    assert len(kept) == 6


# ---------------------------------------------------------------------------
# study-backed method contracts (cached full-scale runs)


def test_pl_alpha_estimates_consistent_dag3(studies):
    study = studies.get(3, 1)
    alpha = study.alpha_means["pl"]
    assert np.max(np.abs(alpha - np.array([-0.8, 0.7, 0.3, 1.0]))) <= 0.05


def test_cl_alpha_estimates_consistent_dag3(studies):
    study = studies.get(3, 1)
    alpha = study.alpha_means["cl"]
    assert np.max(np.abs(alpha - np.array([-0.8, 0.7, 0.3, 1.0]))) <= 0.05


def test_no_probability_clamps_in_well_specified_setup(studies):
    study = studies.get(3, 1)
    for method in ("pl", "cl"):
        assert study.clamp_counts[method] == 0


def test_sr_dag2_theta1_bias_band(studies):
    metric = studies.get(2, 1).metric("sr", "theta1")
    assert metric.relative_bias_pct <= 5.0


def test_cl_dag3_theta2_small_bias(studies):
    metric = studies.get(3, 1).metric("cl", "theta2")
    assert metric.relative_bias_pct <= 2.0


def test_ps_dag4_theta2_bias_band(studies):
    metric = studies.get(4, 1).metric("ps", "theta2")
    assert metric.relative_bias_pct <= 10.0


def test_unweighted_dag2_reproduces_benchmark_bias(studies):
    metric = studies.get(2, 1).metric("unweighted", "theta1")
    # Benchmark mean bias for this scenario is -0.0708; allow 3 MC standard
    # errors of our 500-replication mean around it.
    se = np.sqrt(metric.mc_var / metric.n_used)
    assert abs(metric.bias - (-0.0708)) <= 3 * se


def test_oracle_weights_are_unbiased_anchor(studies):
    study = studies.get(1, 1)
    for parameter in ("theta1", "theta2"):
        assert study.metric("oracle_weights", parameter).relative_bias_pct <= 2.0


def test_true_weight_variance_tracks_monte_carlo(studies):
    metric = studies.get(1, 1).metric("oracle_weights", "theta2")
    ratio = metric.mean_est_var / metric.mc_var
    assert 0.85 <= ratio <= 1.18
