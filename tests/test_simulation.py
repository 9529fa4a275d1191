import json
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import selweight as sw
from selweight import simulation as sim_mod

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


def test_scenario_constants_match_snapshot():
    path = Path(__file__).parent / "data" / "scenario_constants.json"
    snapshot = json.loads(path.read_text())
    for dag in (1, 2, 3, 4):
        for setup in (1, 2, 3):
            cfg = sw.SimulationConfig(dag=dag, setup=setup)
            assert cfg.parameter_table() == snapshot[f"dag{dag}_setup{setup}"]


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
])
def test_config_rejects_values_the_draw_cannot_use(field, value):
    with pytest.raises(sw.ValidationError, match=f"^{field} must "):
        sw.SimulationConfig(dag=1, setup=2, **{field: value})


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
        monkeypatch, thread_starts, n, block_rows):
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", block_rows)
    for k, (seed, index) in enumerate([(0, 0), (2**63 - 1, 3),
                                       (2**63 - 2, 2**40 + 1)]):
        dag, setup = 1 + (n + k) % 4, 1 + (block_rows + k) % 3
        cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=seed,
                                  n_population=n)
        assert (population_bits(sw.generate_population(cfg, index))
                == population_bits(reference_population(cfg, index)))
    # Without helpers every block is drawn on the calling thread.
    assert not thread_starts


@pytest.mark.parametrize("n", [1, sim_mod.POPULATION_BLOCK_ROWS - 1,
                               sim_mod.POPULATION_BLOCK_ROWS + 1, 125_000])
def test_population_draw_raises_no_floating_point_flag(n):
    cfg = sw.SimulationConfig(dag=4, setup=3, seed=5, n_population=n)
    with np.errstate(all="raise"):
        pop = sw.generate_population(cfg, 1, helpers=1)
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
    result = sw.estimate_r_offset_mc(pop, z1_cutoffs=[0.5], z2_cutoffs=[0.5],
                                     min_class_count=1)
    for i in range(result.log_ratio.size):
        cell = ((z1 > 0.5) == result.z1_bin[i]) & ((z2 > 0.5) == result.z2_bin[i])
        p1 = s[cell & (d == 1)].mean()
        p0 = s[cell & (d == 0)].mean()
        assert result.log_ratio[i] == pytest.approx(np.log(p1 / p0), abs=1e-12)


def test_r_offset_skips_sparse_bins():
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=3, n_population=900)
    pop = sw.generate_population(cfg, 0)
    result = sw.estimate_r_offset_mc(pop, n_bins=(5, 5), min_class_count=50)
    assert len(result.skipped) > 0
    assert all(isinstance(item, sw.SparseBinError) for item in result.skipped)


# ---------------------------------------------------------------------------
# replication and study plumbing


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the replication sees as usable."""
    def set_cpus(count):
        monkeypatch.setattr(sim_mod, "_usable_cpus", lambda: count)
    return set_cpus


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started so far, in start order."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


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


def test_run_replication_captures_method_failures(monkeypatch, cpus):
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)

    def boom(*args, **kwargs):
        raise sw.NonConvergenceError("forced failure")

    monkeypatch.setattr(sim_mod, "estimate_weights_pl", boom)
    # One thread per method: the failure stays in pl's result.
    cpus(len(sw.METHODS))
    results = sw.run_replication(cfg, 0, methods=sw.METHODS)
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
# concurrent replication: the calling thread and helper threads share the
# methods


def replication_bits(results):
    """Per method: the error text, or every number the study keeps."""
    bits = {}
    for method, res in results.items():
        if res.failed:
            bits[method] = res.error
            continue
        ws = res.weight_set
        bits[method] = (res.model.coefficients.tobytes(),
                        res.model.vcov.tobytes())
        if ws is not None:
            alpha = b"" if ws.alpha_hat is None else ws.alpha_hat.tobytes()
            bits[method] += (ws.pi_hat.tobytes(), alpha,
                             ws.diagnostics.get("clamped_low", 0),
                             ws.diagnostics.get("clamped_high", 0))
    return bits


@pytest.mark.parametrize("dag", [1, 2, 3, 4])
@pytest.mark.parametrize("setup", [1, 2, 3])
def test_threaded_replication_matches_the_serial_one_bit_for_bit(
        dag, setup, monkeypatch, cpus, thread_starts):
    cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=5, n_population=5000)
    cpus(1)
    serial = sw.run_replication(cfg, 1, methods=sw.METHODS)
    assert not thread_starts

    fitted = []
    fit_one = sim_mod._fit_one

    def counted(method, src):
        fitted.append(method)
        return fit_one(method, src)

    monkeypatch.setattr(sim_mod, "_fit_one", counted)
    # Six threads on fewer cores, switching often: a method taken twice or
    # not at all, or a lost result, would show.
    cpus(len(sw.METHODS))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sw.run_replication(cfg, 1, methods=sw.METHODS)
    finally:
        sys.setswitchinterval(interval)
    assert len(thread_starts) == len(sw.METHODS) - 1
    assert sorted(fitted) == sorted(sw.METHODS)
    assert list(threaded) == list(sw.METHODS)
    assert replication_bits(threaded) == replication_bits(serial)


def test_helper_threads_run_beside_the_caller_with_its_error_state(
        monkeypatch, cpus):
    # Each method waits until both have started, so the test passes only if
    # two threads fit them at once; each records numpy's error state.
    both_started = threading.Barrier(2, timeout=30)
    seen = {}
    estimate_pi = sim_mod.estimate_pi

    def recorded(method, src):
        both_started.wait()
        seen[threading.get_ident()] = np.geterr()
        return estimate_pi(method, src)

    monkeypatch.setattr(sim_mod, "estimate_pi", recorded)
    cpus(2)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    with np.errstate(divide="ignore", over="raise", invalid="print"):
        caller = np.geterr()
        results = sw.run_replication(cfg, 0, methods=("unweighted", "cl"))
    assert threading.get_ident() in seen and len(seen) == 2
    assert all(state == caller for state in seen.values())
    assert not any(res.failed for res in results.values())


@pytest.mark.parametrize("usable", [1, 3])
@pytest.mark.parametrize("order", [("pl", "unweighted", "cl"),
                                   ("cl", "unweighted", "pl")])
def test_the_first_listed_method_error_propagates(monkeypatch, cpus, usable,
                                                  order):
    # pl raises late, so with threads cl's error is raised first in time.
    def late_pl(*args, **kwargs):
        time.sleep(0.2)
        raise RuntimeError("pl defect")

    def cl_defect(*args, **kwargs):
        raise KeyError("cl defect")

    monkeypatch.setattr(sim_mod, "estimate_weights_pl", late_pl)
    monkeypatch.setattr(sim_mod, "estimate_weights_cl", cl_defect)
    cpus(usable)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    expected = RuntimeError if order[0] == "pl" else KeyError
    with pytest.raises(expected, match=f"{order[0]} defect"):
        sw.run_replication(cfg, 0, methods=order)


@pytest.mark.parametrize("usable, methods", [(1, sw.METHODS), (8, ("cl",))])
def test_no_thread_without_a_second_cpu_or_method(cpus, thread_starts, usable,
                                                  methods):
    cpus(usable)
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=2, n_population=5000)
    results = sw.run_replication(cfg, 0, methods=methods)
    assert not thread_starts
    assert list(results) == list(methods)


@pytest.fixture
def drawn(monkeypatch):
    """The populations run_replication draws, in draw order."""
    populations = []
    generate = sim_mod.generate_population

    def recorded(*args, **kwargs):
        populations.append(generate(*args, **kwargs))
        return populations[-1]

    monkeypatch.setattr(sim_mod, "generate_population", recorded)
    return populations


@pytest.mark.parametrize("dag, setup", [(1, 3), (3, 2), (4, 1)])
def test_threaded_draw_in_small_blocks_matches_the_serial_one_bit_for_bit(
        monkeypatch, cpus, thread_starts, drawn, dag, setup):
    cfg = sw.SimulationConfig(dag=dag, setup=setup, seed=2**63 - 3,
                              n_population=5000)
    cpus(1)
    serial = sw.run_replication(cfg, 4, methods=sw.METHODS)
    assert not thread_starts
    # Per stage: the most helpers alive at once, and the threads that ran a
    # task.  Each stage starts its own helpers and joins them.
    peaks, runners = {}, {}

    def watched(stage, task):
        def run(*args):
            alive = sum(thread.is_alive() for thread in thread_starts)
            peaks[stage] = max(peaks.get(stage, 0), alive)
            runners.setdefault(stage, set()).add(threading.get_ident())
            return task(*args)
        return run

    monkeypatch.setattr(sim_mod, "_draw_block",
                        watched("draw", sim_mod._draw_block))
    monkeypatch.setattr(sim_mod, "_fit_one", watched("fit", sim_mod._fit_one))
    # 5000 rows in 20 blocks of 250, on six threads switching often.
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", 257)
    cpus(len(sw.METHODS))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sw.run_replication(cfg, 4, methods=sw.METHODS)
    finally:
        sys.setswitchinterval(interval)
    helpers = len(sw.METHODS) - 1
    for stage in ("draw", "fit"):
        assert peaks[stage] <= helpers, stage
        assert runners[stage] - {threading.get_ident()}, stage
    assert not any(thread.is_alive() for thread in thread_starts)
    assert population_bits(drawn[1]) == population_bits(drawn[0])
    assert (population_bits(drawn[0])
            == population_bits(reference_population(cfg, 4)))
    assert replication_bits(threaded) == replication_bits(serial)


def test_a_failed_helper_start_joins_the_started_helpers(monkeypatch):
    started = []
    start = threading.Thread.start

    def second_fails(self):
        if started:
            raise RuntimeError("no second helper")
        start(self)
        started.append(self)

    monkeypatch.setattr(threading.Thread, "start", second_fails)
    before = set(threading.enumerate())
    done = []

    def slow(i):
        time.sleep(0.05)
        done.append(i)

    with pytest.raises(RuntimeError, match="no second helper"):
        sim_mod._run_tasks([partial(slow, i) for i in range(4)], helpers=3)
    # The first helper took every task and was joined before the error
    # reached the caller.
    assert len(started) == 1 and not started[0].is_alive()
    assert sorted(done) == [0, 1, 2, 3]
    assert set(threading.enumerate()) == before


def test_the_caller_and_a_helper_both_draw_with_the_callers_error_state(
        monkeypatch, cpus, drawn):
    # Each thread's first block waits until a second thread has taken one,
    # so the test passes only if two threads draw; each records numpy's
    # error state.
    both_started = threading.Barrier(2, timeout=30)
    seen = {}
    draw_block = sim_mod._draw_block

    def recorded(*args):
        if threading.get_ident() not in seen:
            seen[threading.get_ident()] = np.geterr()
            both_started.wait()
        draw_block(*args)

    monkeypatch.setattr(sim_mod, "_draw_block", recorded)
    monkeypatch.setattr(sim_mod, "POPULATION_BLOCK_ROWS", 1000)
    cpus(2)
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=2, n_population=5000)
    with np.errstate(divide="ignore", over="raise", invalid="print"):
        caller = np.geterr()
        results = sw.run_replication(cfg, 0, methods=("unweighted", "cl"))
    assert threading.get_ident() in seen and len(seen) == 2
    assert all(state == caller for state in seen.values())
    assert (population_bits(drawn[0])
            == population_bits(reference_population(cfg, 0)))
    assert not any(res.failed for res in results.values())


def test_population_source_gathers_the_masked_rows():
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=8, n_population=5000)
    pop = sw.generate_population(cfg, 0)
    src = sim_mod.PopulationSource(pop)
    internal, external = pop.s == 1.0, pop.s_ext == 1.0
    assert np.array_equal(src.internal, np.flatnonzero(internal))
    assert np.array_equal(src.external, np.flatnonzero(external))
    selection = np.column_stack([np.ones(int(internal.sum())), pop.z2[internal],
                                 pop.w[internal], pop.d[internal]])
    x_ext, pi_ext = src.external_sample
    assert src.selection_design.matrix.tobytes() == selection.tobytes()
    assert x_ext.matrix.tobytes() == np.column_stack(
        [np.ones(int(external.sum())), pop.z2[external], pop.w[external],
         pop.d[external]]).tobytes()
    assert pi_ext.tobytes() == pop.pi_ext[external].tobytes()
    assert src.outcome.tobytes() == pop.d[internal].tobytes()


class InProcessPool:
    """A stand-in process pool that runs every task in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks, chunksize=1):
        return [fn(task) for task in tasks]


def test_study_worker_processes_start_no_threads(monkeypatch, cpus,
                                                 thread_starts):
    monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", InProcessPool)
    cpus(8)
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=9, n_population=4000,
                              replications=3)
    methods = ("unweighted", "pl", "cl")
    pooled = sw.run_study(cfg, methods=methods, parallelism=2)
    assert not thread_starts
    threaded = sw.run_study(cfg, methods=methods, parallelism=1)
    assert len(thread_starts) == 3 * (len(methods) - 1)
    assert pooled.rows == threaded.rows


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
