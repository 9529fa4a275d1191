"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-scale studies
(500 replications at the configured population sizes) are computed once per
session and cached on disk keyed by the package sources (see conftest).
"""

import subprocess
import sys

import numpy as np
from scipy.stats import chi2

import selweight as sw

from conftest import ACCEPTANCE_SEED, cli_env, grid_search_logistic
from test_weights import DISCRETE_CELLS, exact_identity_reconstruction


# One line per criterion, echoed in the terminal summary by the conftest
# hook so the report survives pytest's output capture.
SUMMARY_LINES = []


def report(number, description, clauses):
    ok = all(flag for _, flag, _ in clauses)
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {description}"
    SUMMARY_LINES.append(line)
    print("\n" + line)
    for label, flag, detail in clauses:
        print(f"    [{'ok' if flag else 'FAIL'}] {label}: {detail}")
    assert ok, "; ".join(f"{label} ({detail})"
                         for label, flag, detail in clauses if not flag)


METHODS = ("unweighted", "pl", "sr", "ps", "cl")


def rel(study, method, parameter):
    return study.metric(method, parameter).relative_bias_pct


def test_criterion_01_dag1_universality(studies):
    clauses = []
    for setup in (1, 2, 3):
        study = studies.get(1, setup)
        for method in METHODS:
            for parameter in ("theta1", "theta2"):
                value = rel(study, method, parameter)
                clauses.append((
                    f"setup {setup} {method} {parameter}",
                    value <= 2.0,
                    f"relative bias {value:.2f}% (<= 2%)",
                ))
    report(1, "DAG 1: every method x setup x parameter within 2% relative bias",
           clauses)


def test_criterion_02_dag2_setup1(studies):
    study = studies.get(2, 1)
    clauses = [
        ("unweighted theta1 in [10, 18]",
         10.0 <= rel(study, "unweighted", "theta1") <= 18.0,
         f"{rel(study, 'unweighted', 'theta1'):.2f}%"),
        ("pl theta1 <= 2", rel(study, "pl", "theta1") <= 2.0,
         f"{rel(study, 'pl', 'theta1'):.2f}%"),
        ("cl theta1 <= 2", rel(study, "cl", "theta1") <= 2.0,
         f"{rel(study, 'cl', 'theta1'):.2f}%"),
        ("ps theta1 >= 15", rel(study, "ps", "theta1") >= 15.0,
         f"{rel(study, 'ps', 'theta1'):.2f}%"),
    ]
    for method in METHODS:
        value = rel(study, method, "theta2")
        clauses.append((f"{method} theta2 <= 2", value <= 2.0,
                        f"{value:.2f}%"))
    report(2, "DAG 2 setup 1: bias pattern across methods", clauses)


def test_criterion_03_dag3_setup1(studies):
    study = studies.get(3, 1)
    clauses = [
        ("unweighted theta2 >= 20", rel(study, "unweighted", "theta2") >= 20.0,
         f"{rel(study, 'unweighted', 'theta2'):.2f}%"),
        ("pl theta2 <= 2", rel(study, "pl", "theta2") <= 2.0,
         f"{rel(study, 'pl', 'theta2'):.2f}%"),
        ("cl theta2 <= 2", rel(study, "cl", "theta2") <= 2.0,
         f"{rel(study, 'cl', 'theta2'):.2f}%"),
        ("sr theta2 in [10, 25]",
         10.0 <= rel(study, "sr", "theta2") <= 25.0,
         f"{rel(study, 'sr', 'theta2'):.2f}%"),
        ("pl rmse_relative theta2 <= 0.1",
         study.metric("pl", "theta2").rmse_relative <= 0.1,
         f"{study.metric('pl', 'theta2').rmse_relative:.3f}"),
        ("cl rmse_relative theta2 <= 0.1",
         study.metric("cl", "theta2").rmse_relative <= 0.1,
         f"{study.metric('cl', 'theta2').rmse_relative:.3f}"),
    ]
    report(3, "DAG 3 setup 1: bias pattern and efficiency", clauses)


def test_criterion_04_dag4_setup1(studies):
    study = studies.get(4, 1)
    clauses = [
        ("unweighted theta2 >= 40", rel(study, "unweighted", "theta2") >= 40.0,
         f"{rel(study, 'unweighted', 'theta2'):.2f}%"),
        ("ps theta2 <= 10", rel(study, "ps", "theta2") <= 10.0,
         f"{rel(study, 'ps', 'theta2'):.2f}%"),
        ("pl theta2 <= 2", rel(study, "pl", "theta2") <= 2.0,
         f"{rel(study, 'pl', 'theta2'):.2f}%"),
        ("cl theta2 <= 2", rel(study, "cl", "theta2") <= 2.0,
         f"{rel(study, 'cl', 'theta2'):.2f}%"),
    ]
    report(4, "DAG 4 setup 1: strong-dependence bias pattern", clauses)


def test_criterion_05_misspecification_sensitivity(studies):
    study = studies.get(3, 2)
    clauses = [
        ("pl theta2 >= 15", rel(study, "pl", "theta2") >= 15.0,
         f"{rel(study, 'pl', 'theta2'):.2f}%"),
        ("cl theta2 >= 15", rel(study, "cl", "theta2") >= 15.0,
         f"{rel(study, 'cl', 'theta2'):.2f}%"),
    ]
    report(5, "DAG 3 setup 2: scaled selection model breaks PL/CL", clauses)


def test_criterion_06_variance_calibration(studies):
    clauses = []
    for dag in (1, 2, 3, 4):
        study = studies.get(dag, 1)
        for method in ("pl", "cl"):
            metric = study.metric(method, "theta2")
            ratio = metric.mean_est_var / metric.mc_var
            clauses.append((
                f"dag {dag} {method}", 0.8 <= ratio <= 1.25,
                f"mean est var / MC var = {ratio:.3f}",
            ))
    report(6, "variance estimators track the Monte Carlo variance", clauses)


def test_criterion_07_coverage(studies):
    clauses = []
    for dag in (1, 2, 3, 4):
        study = studies.get(dag, 1)
        for method in ("pl", "cl"):
            cover = study.metric(method, "theta2").coverage
            clauses.append((
                f"dag {dag} {method} coverage in [0.92, 0.97]",
                0.92 <= cover <= 0.97, f"{cover:.3f}",
            ))
    for dag in (3, 4):
        cover = studies.get(dag, 1).metric("sr", "theta2").coverage
        clauses.append((
            f"dag {dag} sr coverage recorded < 0.5", cover < 0.5,
            f"{cover:.3f}",
        ))
    report(7, "95% interval coverage for theta2", clauses)


def test_criterion_08_membership_identity_exact():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    cases = [DISCRETE_CELLS]
    for _ in range(25):
        counts = {}
        for level in range(rng.integers(2, 5)):
            cell = {pair: int(rng.integers(1, 400))
                    for pair in ((1, 1), (1, 0), (0, 1), (0, 0))}
            counts[level] = cell
        cases.append(counts)
    worst = 0.0
    for counts in cases:
        for reconstructed, direct in exact_identity_reconstruction(counts):
            worst = max(worst, abs(reconstructed - direct))
    report(8, "membership identity reconstructs P(S=1|x) from cell counts",
           [("max reconstruction error", worst <= 1e-12, f"{worst:.2e}")])


def test_criterion_09_oracle_equivalences():
    clauses = []

    # (a) weighted logistic fit vs dense grid-search maximizer
    x = np.array([-2.0, -1.2, -0.4, 0.1, 0.6, 1.1, 1.7, 2.3])
    d = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    pi = np.array([0.9, 0.4, 0.7, 0.2, 0.5, 0.8, 0.3, 0.6])
    design = sw.DesignMatrix(np.column_stack([np.ones(8), x]),
                             ["intercept", "x"])
    model = sw.fit_weighted_logistic(design, d, pi)
    oracle = grid_search_logistic(x, d, 1.0 / pi)
    err = float(np.max(np.abs(model.coefficients - oracle)))
    clauses.append(("weighted logistic vs grid search", err <= 1e-3,
                    f"max diff {err:.2e}"))

    # (b) PL with external = population vs full-population logistic MLE
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    x1 = rng.integers(0, 2, size=600).astype(float)
    x2 = rng.integers(0, 2, size=600).astype(float)
    s = (rng.random(600) < 1 / (1 + np.exp(0.4 - 0.9 * x1 + 0.5 * x2))).astype(float)
    population = sw.DesignMatrix(np.column_stack([np.ones(600), x1, x2]),
                                 ["intercept", "x1", "x2"])
    internal = sw.DesignMatrix(population.matrix[s == 1.0],
                               population.column_names)
    ws = sw.estimate_weights_pl(internal, population, np.ones(600))
    mle = sw.fit_weighted_logistic(population, s)
    err = float(np.max(np.abs(ws.alpha_hat - mle.coefficients)))
    clauses.append(("pl alpha vs population logistic MLE", err <= 1e-8,
                    f"max diff {err:.2e}"))

    # (c) calibration constraint residual
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=ACCEPTANCE_SEED,
                              n_population=20_000)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s == 1.0
    internal = sw.DesignMatrix(
        np.column_stack([np.ones(int(mask.sum())), pop.z2[mask],
                         pop.w[mask], pop.d[mask]]),
        ["intercept", "z2", "w", "d"])
    summary = sw.PopulationSummary(
        "marginal_means",
        means=np.array([pop.z2.mean(), pop.w.mean(), pop.d.mean()]),
        names=["z2", "w", "d"], population_size=pop.n)
    ws = sw.estimate_weights_cl(internal, summary)
    totals = np.array([pop.n, pop.z2.sum(), pop.w.sum(), pop.d.sum()])
    resid = float(np.max(np.abs(internal.matrix.T @ (1.0 / ws.pi_hat) - totals)))
    clauses.append(("cl constraint residual <= 1e-6 N", resid <= 1e-6 * pop.n,
                    f"residual {resid:.2e} vs bound {1e-6 * pop.n:.2e}"))

    # (d) sandwich assemblies vs loop-coded matrix sums (1e-12 inside)
    import test_variance as tv

    tv.test_known_weights_matches_hand_assembled_sums()
    tv.test_pl_components_match_loop_coded_sums()
    tv.test_cl_components_match_loop_coded_sums()
    clauses.append(("sandwich components vs hand-assembled sums", True,
                    "all blocks match to 1e-12"))

    report(9, "solver and estimator oracle equivalences", clauses)


def weighted_mean_chi2(bins):
    w = 1.0 / bins.variance
    mean = np.sum(w * bins.log_ratio) / np.sum(w)
    stat = float(np.sum((bins.log_ratio - mean) ** 2 / bins.variance))
    return stat, bins.log_ratio.size - 1


def stratum_slopes(bins):
    pooled_num = 0.0
    pooled_den = 0.0
    for stratum in np.unique(bins.z1_bin):
        keep = bins.z1_bin == stratum
        if keep.sum() < 3:
            continue
        x = bins.z2_mean[keep]
        y = bins.log_ratio[keep]
        w = 1.0 / bins.variance[keep]
        xbar = np.sum(w * x) / np.sum(w)
        sxx = np.sum(w * (x - xbar) ** 2)
        slope = np.sum(w * (x - xbar) * y) / sxx
        pooled_num += slope * sxx
        pooled_den += sxx
    pooled = pooled_num / pooled_den
    pooled_se = 1.0 / np.sqrt(pooled_den)
    return pooled, pooled_se


def test_criterion_10_selection_ratio_structure():
    cfg1 = sw.SimulationConfig(dag=1, setup=1, seed=ACCEPTANCE_SEED)
    bins1 = sw.estimate_r_offset_mc(sw.generate_population(cfg1, 0))
    stat1, dof1 = weighted_mean_chi2(bins1)
    bound1 = float(chi2.ppf(0.999, dof1))

    cfg2 = sw.SimulationConfig(dag=2, setup=1, seed=ACCEPTANCE_SEED)
    bins2 = sw.estimate_r_offset_mc(sw.generate_population(cfg2, 0))
    stat2, dof2 = weighted_mean_chi2(bins2)
    slope, slope_se = stratum_slopes(bins2)
    z = slope / slope_se

    clauses = [
        ("dag 1: log ratio constant across bins", stat1 <= bound1,
         f"chi2 {stat1:.1f} <= {bound1:.1f} (dof {dof1})"),
        ("dag 2: log ratio varies across bins", stat2 > float(chi2.ppf(0.999, dof2)),
         f"chi2 {stat2:.1f}"),
        ("dag 2: within-z1 slope on z2 indistinguishable from 0",
         abs(z) <= 3.2905, f"z = {z:.2f}"),
    ]
    report(10, "binned log selection-ratio structure", clauses)


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "selweight.cli", "simulate",
             "--dag", "2", "--setup", "1", "--replications", "24",
             "--seed", str(ACCEPTANCE_SEED), "--population-size", "8000",
             "--threads", str(threads), "--out", str(out),
             "--format", "csv"],
            capture_output=True, text=True, env=cli_env())
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    report(11, "simulate output is byte-identical across --threads",
           [("threads 1 vs 3", identical, f"{len(outputs[0])} bytes")])
