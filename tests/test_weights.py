import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import selweight as sw
from selweight import solver
from selweight import weights as w_mod


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def design_from(*cols, names=None):
    cols = [np.asarray(c, dtype=float) for c in cols]
    mat = np.column_stack([np.ones(cols[0].size)] + cols)
    names = ["intercept"] + (names or [f"x{i+1}" for i in range(len(cols))])
    return sw.DesignMatrix(mat, names)


# ---------------------------------------------------------------------------
# pseudolikelihood (PL)


def test_pl_intercept_only_population_external():
    internal = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    external = sw.DesignMatrix(np.ones((10, 1)), ["intercept"])
    ws = sw.estimate_weights_pl(internal, external, np.ones(10))
    assert np.allclose(ws.pi_hat, 0.4, atol=1e-8)
    assert ws.method == "PL"
    assert ws.alpha_hat is not None


def test_pl_with_population_external_matches_logistic_mle():
    # With the external sample equal to the whole population at unit design
    # probabilities, the estimating equation is exactly the logistic score of
    # membership on the selection covariates.
    rng = np.random.default_rng(17)
    x1 = rng.integers(0, 2, size=400).astype(float)
    x2 = rng.integers(0, 2, size=400).astype(float)
    s = (rng.random(400) < sw.expit(-0.5 + 0.8 * x1 - 0.4 * x2)).astype(float)
    population = design_from(x1, x2, names=["x1", "x2"])
    internal = sw.DesignMatrix(population.matrix[s == 1.0],
                               population.column_names)
    ws = sw.estimate_weights_pl(internal, population, np.ones(400))
    oracle = sw.fit_weighted_logistic(population, s)
    assert np.max(np.abs(ws.alpha_hat - oracle.coefficients)) <= 1e-8
    assert np.allclose(ws.pi_hat,
                       sw.expit(internal.matrix @ oracle.coefficients),
                       atol=1e-10)


def test_pl_estimating_equation_residual_small():
    sim = sw.SimulationConfig(dag=3, setup=1, seed=4, n_population=20_000)
    pop = sw.generate_population(sim, 0)
    im, em = pop.s == 1.0, pop.s_ext == 1.0
    internal = design_from(pop.z2[im], pop.w[im], pop.d[im],
                           names=["z2", "w", "d"])
    external = design_from(pop.z2[em], pop.w[em], pop.d[em],
                           names=["z2", "w", "d"])
    ws = sw.estimate_weights_pl(internal, external, pop.pi_ext[em])
    ext_w = 1.0 / pop.pi_ext[em]
    resid = (internal.matrix.sum(axis=0)
             - external.matrix.T @ (ext_w * sw.expit(external.matrix @ ws.alpha_hat)))
    assert np.max(np.abs(resid)) / ext_w.sum() <= solver.TOL_SCORE


def test_pl_rank_deficient_design_raises():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    internal = design_from(x, 2 * x, names=["x", "x2"])
    external = design_from(x, 2 * x, names=["x", "x2"])
    with pytest.raises(sw.RankDeficientDesignError):
        sw.estimate_weights_pl(internal, external, np.ones(4))


# ---------------------------------------------------------------------------
# simplex-regression composite (SR)


def test_sr_symmetric_mechanisms_give_constant_probability():
    rng = np.random.default_rng(23)
    n = 6000
    x = rng.normal(size=n)
    s = rng.random(n) < 0.3
    s_ext = rng.random(n) < 0.3
    internal = design_from(x[s], names=["x"])
    external = design_from(x[s_ext], names=["x"])
    pi_ext = np.full(int(s_ext.sum()), 0.3)
    ws = sw.estimate_weights_sr(internal, external, pi_ext, s_ext[s], s[s_ext])
    assert ws.method == "SR"
    assert abs(ws.pi_hat.mean() - 0.3) <= 0.02
    assert ws.pi_hat.std() <= 0.02


def exact_identity_reconstruction(counts):
    """Reconstruct P(S=1|x) from exact cell frequencies for each level x.

    ``counts[x]`` maps (s, s_ext) pairs to unit counts.  Returns pairs of
    (reconstructed, direct) probabilities.
    """
    out = []
    for cell in counts.values():
        n_x = sum(cell.values())
        union = n_x - cell.get((0, 0), 0)
        p11 = cell.get((1, 1), 0) / union
        p10 = cell.get((1, 0), 0) / union
        p01 = cell.get((0, 1), 0) / union
        p_ext = (cell.get((1, 1), 0) + cell.get((0, 1), 0)) / n_x
        reconstructed = p_ext * (p11 + p10) / (p11 + p01)
        direct = (cell.get((1, 1), 0) + cell.get((1, 0), 0)) / n_x
        out.append((reconstructed, direct))
    return out


DISCRETE_CELLS = {
    0: {(1, 1): 30, (1, 0): 30, (0, 1): 70, (0, 0): 70},
    1: {(1, 1): 30, (1, 0): 90, (0, 1): 20, (0, 0): 60},
}


def test_sr_identity_exact_on_enumerated_population():
    for reconstructed, direct in exact_identity_reconstruction(DISCRETE_CELLS):
        assert abs(reconstructed - direct) <= 1e-12


def test_sr_fitters_reproduce_identity_on_saturated_design():
    # One binary covariate saturates both component models, so the composite
    # must reproduce the exact cell-level selection probabilities.
    rows = []
    for x, cell in DISCRETE_CELLS.items():
        for (s, s_ext), count in cell.items():
            rows += [(x, s, s_ext)] * count
    arr = np.array(rows, dtype=float)
    x, s, s_ext = arr[:, 0], arr[:, 1].astype(bool), arr[:, 2].astype(bool)
    p_ext_by_x = {
        lev: (cell.get((1, 1), 0) + cell.get((0, 1), 0)) / sum(cell.values())
        for lev, cell in DISCRETE_CELLS.items()
    }
    p_s_by_x = {
        lev: (cell.get((1, 1), 0) + cell.get((1, 0), 0)) / sum(cell.values())
        for lev, cell in DISCRETE_CELLS.items()
    }
    internal = design_from(x[s], names=["x"])
    external = design_from(x[s_ext], names=["x"])
    pi_ext = np.array([p_ext_by_x[v] for v in x[s_ext]])
    ws = sw.estimate_weights_sr(internal, external, pi_ext, s_ext[s], s[s_ext])
    expected = np.array([p_s_by_x[v] for v in x[s]])
    assert np.max(np.abs(ws.pi_hat - expected)) <= 1e-6


def test_sr_overlap_mask_validation():
    internal = sw.DesignMatrix(np.ones((3, 1)), ["intercept"])
    external = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    pi_ext = np.full(4, 0.5)
    in_ext, in_int = [True, False, False], [False, True, False, False]
    for masks in ((in_ext[:2], in_int), (in_ext, in_int + [False])):
        with pytest.raises(sw.ValidationError,
                           match=r"^\w+ have \d entries for [34] design rows$"):
            sw.estimate_weights_sr(internal, external, pi_ext, *masks)
    with pytest.raises(sw.ValidationError, match="different numbers"):
        sw.estimate_weights_sr(internal, external, pi_ext,
                               [True, True, False], in_int)


def test_sr_degenerate_denominator_reported(monkeypatch):
    internal = design_from(np.array([0.0, 1.0, 0.0, 1.0]), names=["x"])
    external = design_from(np.array([0.0, 1.0, 0.0, 1.0]), names=["x"])

    class StubModel:
        coefficients = np.array([[60.0, 0.0], [-60.0, 0.0]])

    monkeypatch.setattr(w_mod, "fit_multinomial",
                        lambda *a, **k: StubModel())
    with pytest.raises(sw.DegenerateDenominatorError) as excinfo:
        sw.estimate_weights_sr(internal, external, np.full(4, 0.5),
                               np.zeros(4, bool), np.zeros(4, bool))
    assert excinfo.value.unit_indices is not None


# ---------------------------------------------------------------------------
# post-stratification (PS)


def test_ps_uniform_cells_give_sampling_fraction():
    cells = np.array([[0], [0], [1], [1]])
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0], [1]]),
                                   probabilities=np.array([0.5, 0.5]),
                                   population_size=40)
    ws = sw.estimate_weights_ps(cells, summary)
    assert np.allclose(ws.pi_hat, 4 / 40)
    assert ws.method == "PS"


def test_ps_two_cell_worked_example():
    cells = np.array([[0]] * 80 + [[1]] * 20)
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0], [1]]),
                                   probabilities=np.array([0.5, 0.5]),
                                   population_size=1000)
    ws = sw.estimate_weights_ps(cells, summary)
    weights = ws.weights
    assert weights[0] == pytest.approx(6.25, abs=1e-12)
    assert weights[-1] == pytest.approx(25.0, abs=1e-12)
    assert ws.pi_hat[0] == pytest.approx(0.16, abs=1e-12)
    assert ws.pi_hat[-1] == pytest.approx(0.04, abs=1e-12)
    assert weights.sum() == pytest.approx(1000.0, rel=1e-12)


def test_ps_weights_sum_to_population_size():
    rng = np.random.default_rng(31)
    cells_all = rng.integers(0, 3, size=(5000, 2))
    keys, counts = np.unique(cells_all, axis=0, return_counts=True)
    summary = sw.PopulationSummary("joint_cells", levels=keys,
                                   probabilities=counts / 5000,
                                   population_size=5000)
    pick = rng.random(5000) < 0.25
    ws = sw.estimate_weights_ps(cells_all[pick], summary)
    assert ws.weights.sum() == pytest.approx(5000.0, rel=1e-9)


def test_ps_unmatched_cell_raises():
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0]]),
                                   probabilities=np.array([1.0]),
                                   population_size=100)
    with pytest.raises(sw.UnmatchedCellError):
        sw.estimate_weights_ps(np.array([[0], [1]]), summary)


@pytest.mark.parametrize("bad", [0.5, -0.5, np.nan, np.inf, 2.0**63])
def test_ps_rejects_non_integer_cells(bad):
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0], [1]]),
                                   probabilities=np.array([0.5, 0.5]),
                                   population_size=10)
    cells = [[1.0], [0.0], [bad]]
    with pytest.raises(sw.NonIntegerCellError,
                       match="^internal unit 2 has cell value .*, not an integer$"):
        sw.estimate_weights_ps(cells, summary)
    # Integral floats, integers and 1-d input give the same weights.
    reference = sw.estimate_weights_ps(np.array([[1], [0], [1]]), summary)
    for same in ([[1.0], [0.0], [1.0]], [1, 0, 1], np.array([1.0, -0.0, 1.0])):
        ws = sw.estimate_weights_ps(same, summary)
        assert ws.pi_hat.tobytes() == reference.pi_hat.tobytes()


@pytest.mark.parametrize("cells", [np.zeros((0, 1), dtype=np.int64),
                                   np.zeros((0, 1)), []])
def test_ps_rejects_an_empty_internal_sample(cells, recwarn):
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0], [1]]),
                                   probabilities=np.array([0.5, 0.5]),
                                   population_size=10)
    with np.errstate(all="raise"), pytest.raises(
            sw.ValidationError, match="at least one internal unit"):
        sw.estimate_weights_ps(cells, summary)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_ps_requires_population_size():
    summary = sw.PopulationSummary("joint_cells", levels=np.array([[0]]),
                                   probabilities=np.array([1.0]))
    with pytest.raises(sw.ValidationError):
        sw.estimate_weights_ps(np.array([[0]]), summary)


def reference_ps(internal_cells, levels, probabilities, n_pop):
    """Post-stratification over a dict of level tuples, one unit at a time.

    The estimator's earlier implementation, kept as the oracle for the
    array path: (pi_hat, n_cells), or UnmatchedCellError naming the first
    unit that falls outside the positive-probability cells.
    """
    table = {tuple(int(v) for v in row): p
             for row, p in zip(levels, probabilities)}
    keys = [tuple(int(v) for v in row) for row in internal_cells]
    n = len(keys)
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    ratio = np.empty(n)
    for i, key in enumerate(keys):
        pop_prob = table.get(key, 0.0)
        if pop_prob <= 0.0:
            raise sw.UnmatchedCellError(
                f"internal unit {i} falls in cell {key} with no positive "
                "population probability"
            )
        ratio[i] = pop_prob / (counts[key] / n)
    w = ratio * (n_pop / ratio.sum())
    return np.clip(1.0 / w, w_mod.PI_FLOOR, 1.0), len(counts)


# Level values: small, negative, sparse and near +-2**40.
LEVELS = st.one_of(st.integers(-3, 3), st.sampled_from([-1000, 10**6, 10**9]),
                   st.sampled_from([-2**40, -2**40 + 1, 2**40 - 1, 2**40]))


@st.composite
def ps_cases(draw, unmatched=False):
    """(internal cells, levels, probabilities, N) for a random cell table.

    Some table cells may hold no internal unit.  With ``unmatched`` one
    internal unit falls in a cell the table lacks or gives probability 0.
    """
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[LEVELS] * m), min_size=1, max_size=10,
                         unique=True))
    levels = np.array(rows, dtype=np.int64)
    mass = np.array(draw(st.lists(st.integers(1, 9), min_size=len(rows),
                                  max_size=len(rows))), dtype=float)
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                          max_size=40))
    cells = levels[picks]
    if unmatched:
        outside = draw(st.tuples(*[LEVELS] * m))
        if outside in rows:
            mass[rows.index(outside)] = 0.0
            assume(mass.any())
        at = draw(st.integers(0, len(cells)))
        cells = np.insert(cells, at, outside, axis=0)
    n_pop = len(cells) * draw(st.integers(1, 50))
    return cells, levels, mass / mass.sum(), n_pop


def ps_summary(levels, probabilities, n_pop):
    return sw.PopulationSummary("joint_cells", levels=levels,
                                probabilities=probabilities,
                                population_size=n_pop)


@settings(max_examples=150, deadline=None)
@given(ps_cases())
def test_ps_matches_dict_reference_bit_for_bit(case):
    cells, levels, probabilities, n_pop = case
    pi_ref, n_cells_ref = reference_ps(cells, levels, probabilities, n_pop)
    ws = sw.estimate_weights_ps(cells, ps_summary(levels, probabilities, n_pop))
    assert ws.pi_hat.tobytes() == pi_ref.tobytes()
    assert ws.diagnostics["n_cells"] == n_cells_ref


@settings(max_examples=100, deadline=None)
@given(ps_cases(unmatched=True))
def test_ps_unmatched_error_names_reference_unit(case):
    cells, levels, probabilities, n_pop = case
    with pytest.raises(sw.UnmatchedCellError) as expected:
        reference_ps(cells, levels, probabilities, n_pop)
    with pytest.raises(sw.UnmatchedCellError) as got:
        sw.estimate_weights_ps(cells, ps_summary(levels, probabilities, n_pop))
    assert str(got.value) == str(expected.value)


@settings(max_examples=100, deadline=None)
@given(ps_cases(), st.randoms(use_true_random=False))
def test_ps_permuting_units_permutes_pi_and_weights_sum_to_n(case, rnd):
    cells, levels, probabilities, n_pop = case
    # Every cell holds at least 1/90 of the mass, so N >= 100 n leaves every
    # weight above 1 and no probability is clamped.
    n_pop *= 100
    summary = ps_summary(levels, probabilities, n_pop)
    ws = sw.estimate_weights_ps(cells, summary)
    assert ws.weights.sum() == pytest.approx(n_pop, rel=1e-9)
    perm = np.array(rnd.sample(range(len(cells)), len(cells)))
    permuted = sw.estimate_weights_ps(cells[perm], summary)
    assert np.allclose(permuted.pi_hat, ws.pi_hat[perm], rtol=1e-12, atol=0.0)


def fast_path_bound(rows):
    """(product of the column ranges, cell_codes' fast-path bound)."""
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(rows.min(0), rows.max(0))]
    return math.prod(spans), 4 * len(rows) + 2**16


def check_codes_like_unique(rows):
    codes = sw.cell_codes(rows)
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    assert np.array_equal(codes, inverse.ravel())
    assert np.array_equal(w_mod.first_occurrence(codes),
                          np.unique(codes, return_index=True)[1])
    assert np.array_equal(w_mod.first_occurrence(codes), first)


@st.composite
def narrow_rows(draw):
    """Rows of levels in [-3, 3] around a per-column offset of up to 2**62."""
    m = draw(st.integers(1, 3))
    offsets = draw(st.tuples(*[st.sampled_from([0, -1000, 10**9, -2**62,
                                                2**62])] * m))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), min_size=1,
                         max_size=30))
    return np.array(rows, dtype=np.int64) + np.array(offsets, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(narrow_rows())
def test_cell_codes_fast_path_orders_rows_like_unique(rows):
    total, bound = fast_path_bound(rows)
    assert total <= bound
    check_codes_like_unique(rows)


@st.composite
def wide_rows(draw):
    """LEVELS rows plus two that make every column span 2**41 + 1, so the
    range product of three columns would overflow int64."""
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[LEVELS] * m), max_size=30))
    return np.array(rows + [(-2**40,) * m, (2**40,) * m], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(wide_rows())
def test_cell_codes_fallback_orders_rows_like_unique(rows):
    total, bound = fast_path_bound(rows)
    assert total > bound
    check_codes_like_unique(rows)


@pytest.mark.parametrize("extra, sorts", [(0, False), (1, True)])
def test_cell_codes_path_switches_at_bound(monkeypatch, extra, sorts):
    n = 5
    top = 4 * n + 2**16 + extra - 1
    rows = np.array([[top, 0], [3, 0], [0, 0], [3, 0], [top, 0]])
    expected = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    assert fast_path_bound(rows)[0] == 4 * n + 2**16 + extra
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda *a, **k: calls.append(1) or unique(*a, **k))
    assert np.array_equal(sw.cell_codes(rows), expected)
    assert bool(calls) == sorts


@pytest.mark.parametrize("rows", [
    np.array([[0, 127], [1, -128], [0, -128], [1, 127], [0, 5]], dtype=np.int8),
    np.array([[2**64 - 1], [2**63], [2**64 - 3], [2**63]], dtype=np.uint64),
], ids=["int8", "uint64"])
def test_cell_codes_fast_path_offsets_exact_in_every_integer_dtype(rows):
    check_codes_like_unique(rows)


def test_cell_codes_of_no_rows():
    for rows in (np.zeros((0, 3), dtype=np.int64), np.zeros((0, 1), dtype=int)):
        codes = sw.cell_codes(rows)
        assert codes.shape == (0,) and codes.dtype == np.intp
        assert w_mod.first_occurrence(codes).shape == (0,)


def test_marginal_summary_rejects_repeated_names():
    with pytest.raises(sw.ValidationError, match="^name 'z2' is repeated$"):
        sw.PopulationSummary("marginal_means", means=np.array([0.1, 0.2, 0.9]),
                             names=["z2", "w", "z2"], population_size=10)


def test_ps_summary_validation():
    with pytest.raises(sw.DuplicateCellError, match=r"\(1, 2\)"):
        ps_summary(np.array([[0, 1], [1, 2], [1, 2]]),
                   np.array([0.5, 0.25, 0.25]), 10)
    with pytest.raises(sw.ValidationError, match="integers"):
        ps_summary(np.array([[0.5], [1.0]]), np.array([0.5, 0.5]), 10)
    with pytest.raises(sw.ValidationError, match="sum to"):
        ps_summary(np.array([[0], [1]]), np.array([0.5, 0.6]), 10)
    with pytest.raises(sw.ValidationError, match="nonnegative"):
        ps_summary(np.array([[0], [1]]), np.array([1.5, -0.5]), 10)
    with pytest.raises(sw.ValidationError, match="levels matrix"):
        ps_summary(np.array([0, 1]), np.array([0.5, 0.5]), 10)
    summary = ps_summary(np.array([[0], [1]]), np.array([0.5, 0.5]), 10)
    with pytest.raises(sw.ValidationError, match="width"):
        sw.estimate_weights_ps(np.array([[0, 1]]), summary)


# ---------------------------------------------------------------------------
# calibration (CL)


def test_cl_intercept_only():
    internal = sw.DesignMatrix(np.ones((40, 1)), ["intercept"])
    summary = sw.PopulationSummary("marginal_means", means=np.array([]),
                                   names=[], population_size=100)
    ws = sw.estimate_weights_cl(internal, summary)
    assert np.allclose(ws.pi_hat, 0.4, atol=1e-8)
    assert ws.method == "CL"


def test_cl_binary_covariate_matches_bisection_oracle():
    x = np.array([0.0] * 30 + [1.0] * 10)
    internal = design_from(x, names=["x"])
    summary = sw.PopulationSummary("marginal_means", means=np.array([0.5]),
                                   names=["x"], population_size=100)
    ws = sw.estimate_weights_cl(internal, summary)
    # The two moment equations decouple over the binary levels:
    # 10 / expit(a0 + a1) = 50 and 30 / expit(a0) = 50.
    p1 = bisect(lambda p: 10.0 / p - 50.0, 1e-6, 1 - 1e-6)
    p0 = bisect(lambda p: 30.0 / p - 50.0, 1e-6, 1 - 1e-6)
    a0 = sw.logit(p0)
    a1 = sw.logit(p1) - a0
    assert ws.alpha_hat[0] == pytest.approx(a0, abs=1e-8)
    assert ws.alpha_hat[1] == pytest.approx(a1, abs=1e-8)


def test_cl_constraint_residual_scaled_by_population():
    rng = np.random.default_rng(41)
    n_pop = 5000
    x = rng.normal(size=n_pop)
    s = rng.random(n_pop) < sw.expit(-0.5 + 0.6 * x)
    internal = design_from(x[s], names=["x"])
    summary = sw.PopulationSummary("marginal_means",
                                   means=np.array([x.mean()]), names=["x"],
                                   population_size=n_pop)
    ws = sw.estimate_weights_cl(internal, summary)
    totals = np.array([n_pop, n_pop * x.mean()])
    achieved = internal.matrix.T @ (1.0 / ws.pi_hat)
    assert np.max(np.abs(achieved - totals)) <= 1e-6 * n_pop


def test_cl_infeasible_totals_classified():
    x = np.array([0.5] * 10 + [1.5] * 10)
    internal = design_from(x, names=["x"])
    summary = sw.PopulationSummary("marginal_means", means=np.array([0.2]),
                                   names=["x"], population_size=40)
    with pytest.raises(sw.InfeasibleTotalsError):
        sw.estimate_weights_cl(internal, summary)


def test_cl_aligns_summary_means_by_name():
    x1 = np.array([0.0, 1.0, 1.0, 0.0] * 10)
    x2 = np.array([1.0, 1.0, 0.0, 0.0] * 10)
    internal = design_from(x1, x2, names=["a", "b"])
    summary = sw.PopulationSummary("marginal_means",
                                   means=np.array([0.5, 0.5]),
                                   names=["b", "a"], population_size=100)
    ws = sw.estimate_weights_cl(internal, summary)
    swapped = sw.PopulationSummary("marginal_means",
                                   means=np.array([0.5, 0.5]),
                                   names=["a", "b"], population_size=100)
    ws2 = sw.estimate_weights_cl(internal, swapped)
    assert np.allclose(ws.pi_hat, ws2.pi_hat, atol=1e-10)
    missing = sw.PopulationSummary("marginal_means", means=np.array([0.5]),
                                   names=["c"], population_size=100)
    with pytest.raises(sw.ValidationError):
        sw.estimate_weights_cl(internal, missing)
    # Named means never fall back to position, even when the counts agree.
    for names, absent in ((["c", "d"], "['a', 'b']"), (["b", "x"], "['a']")):
        misnamed = sw.PopulationSummary("marginal_means",
                                        means=np.array([0.5, 0.5]),
                                        names=names, population_size=100)
        with pytest.raises(sw.ValidationError, match=re.escape(absent)):
            sw.estimate_weights_cl(internal, misnamed)
    unnamed = sw.PopulationSummary("marginal_means", means=np.array([0.5, 0.5]),
                                   population_size=100)
    assert np.array_equal(sw.estimate_weights_cl(internal, unnamed).pi_hat,
                          ws2.pi_hat)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cl_meets_random_feasible_totals(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    x = rng.normal(size=(n, 2))
    beta = rng.normal(scale=0.5, size=2)
    n_pop = int(rng.integers(2 * n, 10 * n))
    # The intercept that puts sum(1 / expit(a0 + x beta)) at n_pop makes the
    # totals below feasible.
    a0 = -math.log((n_pop - n) / np.exp(-(x @ beta)).sum())
    means = x.T @ (1.0 + np.exp(-a0 - x @ beta)) / n_pop
    summary = sw.PopulationSummary("marginal_means", means=means,
                                   names=["x1", "x2"], population_size=n_pop)
    design = design_from(*x.T, names=["x1", "x2"])
    ws = sw.estimate_weights_cl(design, summary)
    assert ws.diagnostics["clamped_low"] == ws.diagnostics["clamped_high"] == 0
    achieved = design.matrix.T @ (1.0 / ws.pi_hat)
    totals = n_pop * np.concatenate([[1.0], means])
    assert np.max(np.abs(achieved - totals)) / n_pop <= solver.TOL_SCORE


# ---------------------------------------------------------------------------
# row-permutation invariance


def selection_pi(method, x_int, x_ext, pi_ext, int_in_ext, ext_in_int,
                 population_means, n_pop):
    """pi-hat of PL, SR or CL from an internal and an external sample."""
    internal = design_from(*x_int.T, names=["x1", "x2"])
    external = design_from(*x_ext.T, names=["x1", "x2"])
    if method == "pl":
        return sw.estimate_weights_pl(internal, external, pi_ext).pi_hat
    if method == "sr":
        return sw.estimate_weights_sr(internal, external, pi_ext, int_in_ext,
                                      ext_in_int).pi_hat
    summary = sw.PopulationSummary("marginal_means", means=population_means,
                                   names=["x1", "x2"], population_size=n_pop)
    return sw.estimate_weights_cl(internal, summary).pi_hat


@pytest.mark.parametrize("method", ["pl", "sr", "cl"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permuting_sample_rows_permutes_pi(method, seed):
    rng = np.random.default_rng(seed)
    n_pop = 600
    x = rng.normal(size=(n_pop, 2))
    s = rng.random(n_pop) < sw.expit(-1.0 + x @ np.array([0.6, -0.4]))
    pi_ext = 0.15 + 0.5 * sw.expit(0.8 * x[:, 0])
    s_ext = rng.random(n_pop) < pi_ext
    internal = (x[s], s_ext[s])
    external = (x[s_ext], pi_ext[s_ext], s[s_ext])
    pi = selection_pi(method, internal[0], external[0], external[1],
                      internal[1], external[2], x.mean(axis=0), n_pop)
    p_int = rng.permutation(int(s.sum()))
    p_ext = rng.permutation(int(s_ext.sum()))
    permuted = selection_pi(method, internal[0][p_int], external[0][p_ext],
                            external[1][p_ext], internal[1][p_int],
                            external[2][p_ext], x.mean(axis=0), n_pop)
    assert np.allclose(permuted, pi[p_int], rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# winsorization


def test_winsorize_constant_unchanged():
    w = np.full(17, 3.2)
    assert np.array_equal(sw.winsorize_weights(w), w)


def test_winsorize_one_to_hundred_band():
    w = np.arange(1.0, 101.0)
    out = sw.winsorize_weights(w)
    # Band endpoints are the order statistics at ceil/floor of the quantile
    # positions: ceil(99 * 0.025) -> 4th value, floor(99 * 0.975) -> 97th.
    assert out.min() == 4.0
    assert out.max() == 97.0
    inside = (w >= 4.0) & (w <= 97.0)
    assert np.array_equal(out[inside], w[inside])
    assert np.sum(out == 4.0) == 4
    assert np.sum(out == 97.0) == 4


def test_winsorize_default_levels():
    w = np.arange(1.0, 101.0)
    assert np.array_equal(sw.winsorize_weights(w),
                          sw.winsorize_weights(w, 0.025, 0.975))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60))
def test_winsorize_idempotent(values):
    w = np.asarray(values)
    once = sw.winsorize_weights(w)
    twice = sw.winsorize_weights(once)
    assert np.array_equal(once, twice)


def reference_winsorize(w, lower_q, upper_q):
    """The sort-based band: clip at two entries of the sorted weights."""
    n = w.size
    i_hi = int(np.floor((n - 1) * upper_q))
    i_lo = min(int(np.ceil((n - 1) * lower_q)), i_hi)
    ws = np.sort(w)
    return np.clip(w, ws[i_lo], ws[i_hi])


@settings(max_examples=200, deadline=None)
# Up to 400 weights: numpy sorts short arrays whole and selects in longer
# ones.  Half the weights come from six values, so that ties are common.
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@example(1, 0, 0.0, 1.0)
@example(2, 1, 0.3, 0.7)
@example(2, 2, 0.0, 0.5)
def test_winsorize_matches_the_sorted_order_statistics(n, seed, q1, q2):
    assume(q1 != q2)
    lower_q, upper_q = min(q1, q2), max(q1, q2)
    rng = np.random.default_rng(seed)
    tied = rng.choice([1e-3, 0.5, 1.0, 2.0, 2.0000000000000004, 7e5], n)
    w = np.where(rng.random(n) < 0.5, tied, rng.uniform(1e-3, 1e6, n))
    got = sw.winsorize_weights(w, lower_q, upper_q)
    assert got.tobytes() == reference_winsorize(w, lower_q, upper_q).tobytes()


def test_winsorize_validation():
    with pytest.raises(sw.ValidationError):
        sw.winsorize_weights(np.array([1.0, -2.0]))
    with pytest.raises(sw.ValidationError):
        sw.winsorize_weights(np.array([1.0, 2.0]), 0.9, 0.1)
    with pytest.raises(sw.ValidationError, match="must not be empty"):
        sw.winsorize_weights([])


# ---------------------------------------------------------------------------
# outcome augmentation


def test_augmentation_identity_when_probabilities_match():
    w0 = np.array([2.0, 3.0, 4.0])
    d = np.array([1.0, 0.0, 1.0])
    p = np.array([0.3, 0.6, 0.2])
    assert np.allclose(
        sw.augment_weights_with_outcome(w0, d, p, p), w0, atol=1e-15)


def test_augmentation_arithmetic():
    out = sw.augment_weights_with_outcome(
        np.array([2.0]), np.array([1.0]), np.array([0.2]), np.array([0.5]))
    assert out[0] == pytest.approx(0.8, abs=1e-15)
    out = sw.augment_weights_with_outcome(
        np.array([3.0]), np.array([0.0]), np.array([0.2]), np.array([0.5]))
    assert out[0] == pytest.approx(4.8, abs=1e-12)


def test_augmentation_validation():
    with pytest.raises(sw.ValidationError):
        sw.augment_weights_with_outcome(
            np.array([1.0]), np.array([1.0]), np.array([1.0]),
            np.array([0.5]))


# ---------------------------------------------------------------------------
# NaN probabilities and weights


def test_pl_and_sr_reject_nan_external_probabilities():
    internal = sw.DesignMatrix(np.ones((4, 1)), ["intercept"])
    external = sw.DesignMatrix(np.ones((10, 1)), ["intercept"])
    pi_ext = np.ones(10)
    pi_ext[3] = np.nan
    message = "external design probabilities"
    with pytest.raises(sw.ValidationError, match=message):
        sw.estimate_weights_pl(internal, external, pi_ext)
    with pytest.raises(sw.ValidationError, match=message):
        sw.estimate_weights_sr(internal, external, pi_ext, np.zeros(4, bool),
                               np.zeros(10, bool))


def test_weight_set_rejects_nan_probabilities():
    with pytest.raises(sw.ValidationError, match="pi_hat"):
        sw.WeightSet(np.array([0.5, np.nan]), "PS")


def test_winsorize_rejects_nan_weights():
    with pytest.raises(sw.ValidationError, match="positive"):
        sw.winsorize_weights(np.array([1.0, np.nan, 2.0]))


@pytest.mark.parametrize("position, message", [
    (0, "weights must be positive"),
    (2, "p_pop must lie"),
    (3, "p_int must lie"),
])
def test_augmentation_rejects_nan_inputs(position, message):
    inputs = [np.array([2.0, 3.0]), np.array([1.0, 0.0]),
              np.array([0.3, 0.6]), np.array([0.4, 0.5])]
    inputs[position][1] = np.nan
    with pytest.raises(sw.ValidationError, match=message):
        sw.augment_weights_with_outcome(*inputs)


# ---------------------------------------------------------------------------
# coarsening


def test_coarsen_default_quantile_bins():
    values = np.arange(1.0, 101.0)
    labels = sw.coarsen(values)
    counts = np.bincount(labels, minlength=3)
    assert labels.max() == 2
    assert tuple(counts) == (15, 70, 15)


def test_coarsen_explicit_rule_half_open_intervals():
    cutoffs = np.array([0.0, 1.0])
    labels = sw.coarsen(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]), cutoffs)
    assert labels.tolist() == [0, 1, 1, 2, 2]


def test_coarsen_constant_input_raises():
    with pytest.raises(sw.DegenerateCutoffsError):
        sw.coarsen(np.full(10, 7.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=3, max_size=50))
def test_coarsen_is_order_preserving(values):
    v = np.asarray(values)
    if np.quantile(v, 0.15) >= np.quantile(v, 0.85):
        return
    labels = sw.coarsen(v)
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(labels[order]) >= 0)


def test_coarsening_rule_validation():
    with pytest.raises(sw.DegenerateCutoffsError):
        sw.coarsen(np.array([0.5]), np.array([1.0, 1.0]))
    # Quantile cutoffs need a value; given cutoffs, no value gets no label.
    with pytest.raises(sw.ValidationError, match="at least one value"):
        sw.coarsen([])
    assert sw.coarsen([], [0.0]).size == 0


@pytest.mark.parametrize("cutoffs", [[np.nan, 1.0], [1.0, np.nan], [np.nan],
                                     [-np.inf, 1.0], [1.0, np.inf],
                                     [2.0, 1.0]])
def test_coarsen_rejects_non_finite_or_unordered_cutoffs(cutoffs):
    with pytest.raises(sw.DegenerateCutoffsError,
                       match="not finite and strictly increasing"):
        sw.coarsen(np.array([1.0, 2.0]), np.array(cutoffs))


@st.composite
def values_around_cutoffs(draw):
    """Strictly increasing finite cutoffs, and values that include each
    cutoff, its neighbouring floats on either side, and the infinities."""
    cutoffs = sorted(set(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1,
        max_size=4))))
    near = [x for c in cutoffs for x in
            (c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf))]
    values = draw(st.lists(st.one_of(
        st.sampled_from(near + [-np.inf, np.inf]), st.floats(allow_nan=False)),
        max_size=40))
    return np.array(values, dtype=float), np.array(cutoffs)


@settings(max_examples=200, deadline=None)
@given(values_around_cutoffs())
# Cutoffs whose difference overflows to inf are still strictly increasing.
@example((np.array([]), np.array([-9.97920155e291, np.finfo(float).max])))
def test_coarsen_labels_match_searchsorted(case):
    values, cutoffs = case
    labels = sw.coarsen(values, cutoffs)
    expected = np.searchsorted(cutoffs, values, side="right").astype(int)
    assert labels.dtype == expected.dtype
    assert labels.tolist() == expected.tolist()


@pytest.mark.parametrize("cutoffs", [None, [1.5]])
def test_coarsen_rejects_nan_values(cutoffs):
    with pytest.raises(sw.ValidationError, match="must not be NaN"):
        sw.coarsen(np.array([np.nan, 1.0, 2.0, 3.0]), cutoffs)


# ---------------------------------------------------------------------------
# WeightSet contract


def test_weight_set_alpha_presence_rule():
    with pytest.raises(sw.ValidationError):
        sw.WeightSet(np.array([0.5]), "PL")
    with pytest.raises(sw.ValidationError):
        sw.WeightSet(np.array([0.5]), "SR", alpha_hat=np.zeros(2))
    with pytest.raises(sw.ValidationError):
        sw.WeightSet(np.array([1.5]), "known")
    ws = sw.WeightSet(np.array([0.5]), "CL", alpha_hat=np.zeros(2))
    assert ws.weights[0] == pytest.approx(2.0)


def test_estimated_weight_set_counts_exactly_the_clamped_entries():
    floor = w_mod.PI_FLOOR
    below = [-1.0, 0.0, 5e-11, math.nextafter(floor, 0.0)]
    inside = [floor, 0.5, 1.0]
    above = [math.nextafter(1.0, 2.0), 1.5, 3.0]
    pi = np.array(below + inside + above)
    ws = w_mod.estimated_weight_set(pi, "CL", np.zeros(2), iterations=4)
    assert list(ws.diagnostics) == ["iterations", "clamped_low", "clamped_high"]
    assert ws.diagnostics["clamped_low"] == len(below)
    assert ws.diagnostics["clamped_high"] == len(above)
    assert ws.clamped == len(below) + len(above)
    assert ws.pi_hat.tolist() == [floor] * len(below) + inside + [1.0] * len(above)
    assert ws.alpha_hat.tolist() == [0.0, 0.0]
    # Inside the interval nothing moves and nothing is counted.
    ws = w_mod.estimated_weight_set(np.array(inside), "PS")
    assert ws.diagnostics == {"clamped_low": 0, "clamped_high": 0}
    assert ws.pi_hat.tolist() == inside
    assert sw.WeightSet(np.array(inside), "known").clamped == 0


def test_logistic_selection_pi_takes_the_same_clamp():
    x = np.array([[1.0, -40.0], [1.0, 0.0], [1.0, 40.0]])
    pi = w_mod.logistic_selection_pi(x, [0.0, 1.0])
    assert pi.tobytes() == w_mod.clamp_pi(sw.expit(x @ [0.0, 1.0])).tobytes()
    assert pi[0] == w_mod.PI_FLOOR
