import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selweight as sw
from selweight import cli, dataio
from selweight.cli import FileSource, build_parser
from selweight.dataio import ResultTable, format_number

from conftest import cli_env


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_population(pop, mask, path, include_s=True):
    fields = {
        "d": pop.d, "z1": pop.z1, "z2": pop.z2, "w": pop.w,
        "s": pop.s, "s_ext": pop.s_ext, "pi_ext": pop.pi_ext,
    }
    if not include_s:
        fields.pop("s")
    names = list(fields)
    rows = [",".join(names)]
    idx = np.flatnonzero(mask)
    for i in idx:
        rows.append(",".join(format_number(float(fields[c][i]))
                             for c in names))
    write_lines(path, rows)


ROLES_LINES = [
    "outcome=d",
    "disease_covariates=z1,z2",
    "selection_covariates=z2,w",
    "selection_indicator=s",
    "external_indicator=s_ext",
    "external_prob=pi_ext",
]


@pytest.fixture
def roles_file(tmp_path):
    path = tmp_path / "roles.cfg"
    write_lines(path, ROLES_LINES)
    return path


# ---------------------------------------------------------------------------
# role maps


def test_parse_role_map(roles_file):
    roles = sw.parse_role_map(roles_file)
    assert roles.outcome == "d"
    assert roles.disease_covariates == ["z1", "z2"]
    assert roles.selection_covariates == ["z2", "w"]
    assert roles.external_prob == "pi_ext"


def test_parse_role_map_rejects_unknown_key(tmp_path):
    path = tmp_path / "roles.cfg"
    write_lines(path, ["outcome=d", "disease_covariates=z1", "shoe_size=9"])
    with pytest.raises(sw.ValidationError, match="unknown key"):
        sw.parse_role_map(path)


def test_role_map_rejects_role_clashes():
    with pytest.raises(sw.ValidationError):
        sw.ColumnRoleMap(outcome="d", disease_covariates=["d"],
                         selection_covariates=[])
    with pytest.raises(sw.ValidationError):
        sw.ColumnRoleMap(outcome="d", disease_covariates=["z", "z"],
                         selection_covariates=[])


def test_role_map_is_changed_only_through_its_checks():
    roles = sw.ColumnRoleMap(outcome="d", disease_covariates=["z1"],
                             selection_covariates=["w"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        roles.selection_covariates = ["d", "d"]
    assert roles.mapped_columns() == ["d", "z1", "w"]
    with pytest.raises(sw.ValidationError,
                       match=r"^columns \['d'\] mapped to multiple roles$"):
        dataclasses.replace(roles, selection_covariates=["d"])
    changed = dataclasses.replace(roles, selection_covariates=["w", "z1"])
    assert changed.mapped_columns() == ["d", "z1", "w"]


def key_value_lines(record):
    """A ``key=value`` line for every field of ``record``; a list or tuple
    is comma-separated, and a float has its shortest exact text."""
    lines = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        lines.append(f"{f.name}={value}")
    return lines


def test_a_roles_file_of_every_field_reads_back_to_its_record(tmp_path):
    roles = sw.ColumnRoleMap(outcome="d", disease_covariates=["z1", "z2"],
                             selection_covariates=["z2", "w"],
                             selection_indicator="s", external_indicator="s_ext",
                             external_prob="pi_ext")
    assert all(getattr(roles, f.name) for f in dataclasses.fields(roles))
    path = tmp_path / "roles.cfg"
    write_lines(path, key_value_lines(roles))
    assert sw.parse_role_map(path) == roles


def test_an_absent_or_empty_role_is_unset(tmp_path):
    path = tmp_path / "roles.cfg"
    write_lines(path, ["outcome=d", "disease_covariates=z1,,z2 ",
                       "selection_indicator=", "external_prob= "])
    assert sw.parse_role_map(path) == sw.ColumnRoleMap(
        outcome="d", disease_covariates=["z1", "z2"], selection_covariates=[])


def test_a_config_file_of_every_field_reads_back_to_its_record(tmp_path):
    cfg = sw.SimulationConfig(
        dag=2, setup=3, n_population=4321, replications=7, seed=11,
        theta=(-1.5, 0.25, 0.1), alpha0=-0.7, alpha2=0.35, alpha3=0.9,
        nu=(-0.5, 1.1, 0.3, 0.45), external_scale=0.6, setup2_scale=0.3,
        z_correlation=-0.2)
    assert all(getattr(cfg, f.name) != f.default
               for f in dataclasses.fields(cfg))
    path = tmp_path / "scenario.cfg"
    write_lines(path, key_value_lines(cfg))
    assert sw.SimulationConfig(**cli._read_config(path)) == cfg


@pytest.mark.parametrize("lines, message", [
    (["disease_covariates=z1"], "an outcome column is required"),
    (["outcome=d", "disease_covariates=z1,z1"],
     "duplicate names in disease_covariates"),
    (["outcome=d", "disease_covariates=z1", "selection_covariates=d"],
     "columns ['d'] mapped to multiple roles"),
])
def test_cli_roles_file_errors_name_the_file(tmp_path, lines, message):
    roles = tmp_path / "roles.cfg"
    write_lines(roles, lines)
    data = tmp_path / "data.csv"
    write_lines(data, ["d,z1", "1,0.5", "0,1.5"])
    out = tmp_path / "out.csv"
    code, stderr = run_main(["fit", "--method", "unweighted", "--data", data,
                             "--roles", roles, "--out", out])
    assert (code, stderr) == (2, [f"error: validation: {roles}: {message}"])
    assert not out.exists()


# ---------------------------------------------------------------------------
# dataset loading


def simple_roles():
    return sw.ColumnRoleMap(outcome="D", disease_covariates=["Z1"],
                            selection_covariates=["W1"])


def test_load_small_dataset(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1,W1", "1,0.5,2.0", "0,-0.25,1.0", "1,0.125,0.5"])
    sample = sw.load_dataset(path, simple_roles())
    assert sample.n_rows == 3
    assert np.allclose(sample.outcome, [1.0, 0.0, 1.0])
    design = sample.disease_design()
    assert design.column_names == ["intercept", "Z1"]


def test_sample_designs_equal_their_column_stack(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1,W1,W2", "1,0.5,2.0,-0.0", "0,-0.25,1.0,1e-310",
                       "1,0.125,0.5,3"])
    roles = sw.ColumnRoleMap(outcome="D", disease_covariates=["Z1"],
                             selection_covariates=["W1", "W2", "Z1"])
    sample = sw.load_dataset(path, roles)
    ones = np.ones(3)
    cases = [
        (sample.disease_design(), ["Z1"]),
        (sample.selection_design(), ["W1", "W2", "Z1"]),
        (sample.selection_design(include_outcome=True), ["W1", "W2", "Z1", "D"]),
    ]
    # A roles file without selection_covariates gives an intercept-only
    # selection model.
    roles = sw.ColumnRoleMap(outcome="D", disease_covariates=["Z1"],
                             selection_covariates=[])
    cases.append((sw.load_dataset(path, roles).selection_design(), []))
    for design, names in cases:
        expected = np.column_stack([ones, *(sample.column(c) for c in names)])
        assert design.matrix.tobytes() == expected.tobytes()
        assert design.column_names == ["intercept", *names]


def test_missing_value_error_names_row_and_column(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1,W1", "1,0.5,2.0", "0,-0.25,NA", "1,0.125,0.5"])
    with pytest.raises(sw.NonNumericCellError) as excinfo:
        sw.load_dataset(path, simple_roles())
    assert "row 2" in str(excinfo.value)
    assert "'W1'" in str(excinfo.value)


def test_missing_column_error(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1", "1,0.5"])
    with pytest.raises(sw.MissingColumnError):
        sw.load_dataset(path, simple_roles())


def test_non_binary_outcome_error(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1,W1", "2,0.5,1.0"])
    with pytest.raises(sw.NonBinaryIndicatorError):
        sw.load_dataset(path, simple_roles())


def test_round_trip_export_import_fit_identical(tmp_path, roles_file):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=21, n_population=4000)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s == 1.0
    path = tmp_path / "internal.csv"
    export_population(pop, mask, path)
    sample = sw.load_dataset(path, sw.parse_role_map(roles_file))

    design_mem = sw.DesignMatrix(
        np.column_stack([np.ones(int(mask.sum())), pop.z1[mask],
                         pop.z2[mask]]), ["intercept", "z1", "z2"])
    fit_mem = sw.fit_weighted_logistic(design_mem, pop.d[mask])
    fit_file = sw.fit_weighted_logistic(sample.disease_design(),
                                        sample.outcome)
    assert np.max(np.abs(fit_mem.coefficients - fit_file.coefficients)) <= 1e-12


# Cell tokens: mostly numbers, so that many files take the numpy pass, plus
# every token the row loop treats specially.
NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "1e400", "-1e-400", "5e-324", "+.5", "7."]),
)
SPECIAL_TOKENS = st.sampled_from([
    "", "NA", "na", "nan", "NaN", "-nan", "null", "N/A", "inf", "-Infinity",
    "1_0", '"1.5"', '"1,5"', "x", "0x10", "\u0661",
])
PADDING = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def padded(draw, tokens):
    return draw(PADDING) + draw(tokens) + draw(PADDING)


CELL_TOKENS = padded(st.one_of(NUMBER_TOKENS, NUMBER_TOKENS, SPECIAL_TOKENS))
BINARY_DIGITS = st.sampled_from(["0", "1", "1.0", "0e0", "-0"])
BINARY_TOKENS = padded(st.sampled_from(["0", "1", "1.0", "2", "0.5", "nan",
                                        "NA", ""]))
# Unmapped text: IDs, cells loadtxt's float conversion rejects, a long
# number, and quoted cells that csv and loadtxt split differently.
TEXT_LABELS = ["S000017", "id 7", "1_0", "0x10", "1" + "0" * 400, '"a,b"',
               '"q"', 'x"y', '""']
LABEL_TOKENS = st.sampled_from(["a", "b c", "1", "", "nan", *TEXT_LABELS])
# Unmapped columns: none, one or two after W, or an ID before D and many after.
UNMAPPED = st.sampled_from([([], []), ([], ["label"]), ([], ["label", "note"]),
                            (["id"], [f"note{k}" for k in range(12)])])


@st.composite
def csv_texts(draw):
    """A data file with outcome D, covariates X and W and, when drawn,
    unmapped columns and a byte-order mark, written from the token grammar
    above.  Most files draw only numbers, empty lines and padding in D, X
    and W, some with a 2 in D or NaN tokens in X and W; unmapped columns may
    hold text."""
    before, after = draw(UNMAPPED)
    header = before + ["D", "X", "W"] + after
    style = draw(st.sampled_from(["numbers", "numbers", "D in 0, 1, 2",
                                  "NaN", "mixed", "mixed"]))
    if style != "mixed":
        outcome = (st.sampled_from(["0", "1", "2"]) if style == "D in 0, 1, 2"
                   else BINARY_DIGITS)
        number = padded(NUMBER_TOKENS if style != "NaN" else st.one_of(
            NUMBER_TOKENS, st.sampled_from(["nan", "-nan", "NaN", "+nan"])))
        tokens = {"D": padded(outcome), "X": number, "W": number}
        text = st.sampled_from(["1", "nan", " -2 ", *TEXT_LABELS])
        kinds = ["row"] * 6 + ["blank"]
        blanks = [""]
    else:
        tokens = {"D": BINARY_TOKENS, "X": CELL_TOKENS, "W": CELL_TOKENS}
        text = LABEL_TOKENS
        kinds = ["row"] * 6 + ["blank", "narrow", "wide"]
        blanks = ["", "  ", ",,,", " , ,"]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        cells = [draw(tokens.get(name, text)) for name in header]
        if kind == "blank":
            lines.append(draw(st.sampled_from(blanks)))
        elif kind == "narrow":
            lines.append(",".join(cells[:-1]))
        else:
            lines.append(",".join(cells + ["1"] * (kind == "wide")))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


def load_outcome(path, roles):
    """The loaded columns' bytes and row count, or the error's type and text."""
    try:
        sample = sw.load_dataset(path, roles)
    except Exception as exc:  # the error is the outcome to compare
        return type(exc), str(exc)
    return {c: v.tobytes() for c, v in sample.columns.items()}, sample.n_rows


@settings(max_examples=60, deadline=None)
@given(csv_texts())
# An ID column; a short row whose quoted comma makes up the missing field
# for loadtxt, which does not read quotes, in the middle and at the end.
@example("D,X,W,label\n1,2,3,S000017\n0,4,5,S000018\n")
@example('D,X,W,label,note\n1,2,3,"a,b"\n')
@example('D,X,W,label,note\n1,2,3,4,5\n1,2,3,"a,b"\n')
@example('label,D,X,W\n"a,b",1,2\n')
# A quoted field as the last column: the row loop reads the file.
@example('D,X,W,note\n1,2,3,"q"\n0,4,5,"a,b"\n')
# Unmapped cells loadtxt's float conversion rejects, and a long number.
@example("id,D,X,W,note\n1_0,1,2,3,0x10\nS000017,0,4,5," + "9" * 400 + "\n")
# Many unmapped columns around the mapped ones.
@example("a,b,D,c,X,d,e,W,f,g\n" + "x,,1,y,2,z,w,3,v,u\n" * 3)
# A byte-order mark before the first name.
@example("\ufeffD,X,W\n1,2,3\n")
def test_load_dataset_equals_the_row_loop(text):
    roles = sw.ColumnRoleMap(outcome="D", disease_covariates=["X"],
                             selection_covariates=["W"])
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        got = load_outcome(path, roles)
        # With the numpy pass declined, the row loop parses every file.
        with mock.patch.object(dataio, "_numeric_table", return_value=None):
            expected = load_outcome(path, roles)
    assert got == expected


def test_load_dataset_parses_clean_files_in_one_numpy_pass(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"D,Z1,W1,note\r\n1, 0.5 ,2e0,-1\r\n\r\n0,-0,1e300,nan\r\n")
    with mock.patch.object(dataio, "_columns_by_row",
                           side_effect=AssertionError("row loop ran")):
        sample = sw.load_dataset(path, simple_roles())
    assert sample.n_rows == 2
    assert sample.columns["Z1"].tobytes() == np.array([0.5, -0.0]).tobytes()
    assert sample.columns["W1"].tolist() == [2.0, 1e300]


def test_load_dataset_reads_text_columns_in_the_numpy_pass(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"id,D,Z1,W1,site\nS01,1,0.5,2,north\nS02,0,-1,3,\n")
    with mock.patch.object(dataio, "_columns_by_row",
                           side_effect=AssertionError("row loop ran")):
        sample = sw.load_dataset(path, simple_roles())
    assert sample.n_rows == 2
    assert sample.columns["Z1"].tolist() == [0.5, -1.0]
    assert sample.columns["W1"].tolist() == [2.0, 3.0]


@pytest.mark.parametrize("content", [
    # Text first and last columns, and a quote inside a field.
    b'id,D,Z1,W1,site\nS01,1,0.5,2,no"rth\nS02,0,-1,3,a b\n',
    # One data row, without a line end.
    b"D,Z1,W1,note\n1,0.5,2,text",
    # Many unmapped columns, some with repeated names.
    b"a,a,D,b,Z1,b,W1,c,d,e,f,g,h\n" + b"x,y,1,z,0.5,,2,1_0,0x10,,,q,r\n" * 4,
    # A byte-order mark before the first name.
    b"\xef\xbb\xbfD,Z1,W1\n1,0.5,2\n0,-1,3\n",
])
def test_load_dataset_reads_in_the_numpy_pass(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    expected = load_outcome(path, simple_roles())
    assert isinstance(expected[0], dict), expected
    with mock.patch.object(dataio, "_columns_by_row",
                           side_effect=AssertionError("row loop ran")):
        assert load_outcome(path, simple_roles()) == expected


# An unread cell that the numpy pass reads, and one that sends the file to
# the row loop.
@pytest.mark.parametrize("note", ["text", '"q"'])
@pytest.mark.parametrize("token", ["inf", " -Infinity", "1e999"])
def test_load_dataset_rejects_a_non_finite_cell_on_both_parse_paths(
        tmp_path, note, token):
    path = tmp_path / "data.csv"
    write_lines(path, ["D,Z1,W1,note", "1,0.5,2,a", f"0,{token},3,{note}"])
    message = (f"{path}: non-finite value {token.strip()!r} at row 2, "
               "column 'Z1'")
    with mock.patch.object(dataio, "_columns_by_row",
                           wraps=dataio._columns_by_row) as row_loop:
        with pytest.raises(sw.NonNumericCellError,
                           match=f"^{re.escape(message)}$"):
            sw.load_dataset(path, simple_roles())
    assert row_loop.call_count == 1
    # In an unread column the same token is not an error.
    write_lines(path, ["D,Z1,W1,note", "1,0.5,2,a", f"0,1,3,{token}"])
    assert sw.load_dataset(path, simple_roles()).n_rows == 2


@pytest.mark.parametrize("header", ["D,Z1,W1,Z1", "Z1,D,Z1,W1,note"])
def test_load_dataset_rejects_a_repeated_wanted_column(tmp_path, header):
    path = tmp_path / "data.csv"
    width = header.count(",") + 1
    write_lines(path, [header, ",".join(["1"] * width)])
    message = rf"^{re.escape(str(path))}: header repeats column 'Z1'$"
    with pytest.raises(sw.ValidationError, match=message):
        sw.load_dataset(path, simple_roles())


# A field over csv.field_size_limit() (131,072 characters); the value is 0.5.
LONG_NUMBER = "0.5" + "0" * 140_000


@pytest.mark.parametrize("column", ["Z1", "note"])
def test_load_dataset_rejects_an_overlong_field_in_any_column(tmp_path, column):
    path = tmp_path / "data.csv"
    header = ["D", "Z1", "W1", "note"]
    row = ["1", "0.25", "2", "text"]
    row[header.index(column)] = LONG_NUMBER
    write_lines(path, [",".join(header), ",".join(row), "0,0.5,3,more"])
    message = rf"^{re.escape(str(path))}: field larger than field limit \(131072\)$"
    with pytest.raises(sw.ValidationError, match=message):
        sw.load_dataset(path, simple_roles())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12)), st.integers(1, 10),
       st.sampled_from([b"\n", b"\r\n"]), st.booleans())
def test_has_long_line_matches_the_longest_line(lengths, limit, end, last_end):
    data = end.join(b"x" * n for n in lengths) + (end if last_end else b"")
    longest = max((len(line) for line in data.split(b"\n")), default=0)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.csv"
        path.write_bytes(data)
        assert dataio._has_long_line(path, limit) == (longest > limit)


# ---------------------------------------------------------------------------
# summary loading


def test_load_joint_cells(tmp_path):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,w_bin,probability", "0,0,0.25", "0,1,0.25",
                       "1,0,0.3", "1,1,0.2"])
    summary = sw.load_population_summary(path, "joint_cells")
    assert summary.kind == "joint_cells"
    cell = summary.levels.tolist().index([1, 0])
    assert summary.probabilities[cell] == pytest.approx(0.3)
    assert summary.names == ["d", "w_bin"]
    assert not summary.warnings


def test_joint_cells_renormalized_with_warning(tmp_path):
    probabilities = ["0.0985", "0.0956", "0.1008", "0.1004", "0.1052",
                     "0.0981", "0.1002", "0.0993", "0.1013", "0.1011"]
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,probability"] + [
        f"{i},{p}" for i, p in enumerate(probabilities)])
    values = [float(p) for p in probabilities]
    total = sum(values)
    # numpy's pairwise sum of these cells gives another total.
    assert total != float(np.sum(values))
    summary = sw.load_population_summary(path, "joint_cells")
    assert summary.probabilities.tolist() == [p / total for p in values]
    assert summary.warnings == [
        f"cell probabilities summed to {total:.6f}; renormalized to 1"]


@pytest.mark.parametrize("rows", [[], [""], ["", " , "]])
def test_joint_cells_without_data_rows_are_rejected(tmp_path, rows):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,w_bin,probability", *rows])
    with pytest.raises(sw.ValidationError,
                       match=f"^{re.escape(str(path))}: no data rows$"):
        sw.load_population_summary(path, "joint_cells")


def test_joint_cells_sum_out_of_range(tmp_path):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,probability", "0,0.6", "1,0.6"])
    with pytest.raises(sw.ProbabilitySumOutOfRangeError):
        sw.load_population_summary(path, "joint_cells")


def test_joint_cells_duplicate_rejected(tmp_path):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,probability", "0,0.5", "0,0.5"])
    with pytest.raises(sw.DuplicateCellError):
        sw.load_population_summary(path, "joint_cells")


@pytest.mark.parametrize("header, name", [
    ("d,d,probability", "d"),
    ("d,w_bin,w_bin,probability", "w_bin"),
    ("probability,probability", "probability"),
])
def test_joint_cells_reject_a_repeated_level_name(tmp_path, header, name):
    path = tmp_path / "cells.csv"
    width = header.count(",")
    write_lines(path, [header] + [",".join(["0"] * width + [p])
                                  for p in ("0.5", "0.5")])
    message = rf"^{re.escape(str(path))}: header repeats column {name!r}$"
    with pytest.raises(sw.ValidationError, match=message):
        sw.load_population_summary(path, "joint_cells")


def test_marginal_means_requires_population_size(tmp_path):
    path = tmp_path / "marg.csv"
    write_lines(path, ["name,value", "z2,0.1", "w,0.0"])
    with pytest.raises(sw.MissingNError):
        sw.load_population_summary(path, "marginal_means")
    write_lines(path, ["name,value", "z2,0.1", "w,0.0", "N,1000"])
    summary = sw.load_population_summary(path, "marginal_means")
    assert summary.population_size == 1000
    assert summary.names == ["z2", "w"]


@pytest.mark.parametrize("lines, repeat", [
    (["N,1000", "z2,0.1", "z2,0.9", "N,2000"], "name 'z2' at row 3 repeats row 2"),
    (["N,1000", "z2,0.1", "N,2000"], "name 'N' at row 3 repeats row 1"),
    (["w,0.0", "", "N,1000", "w,0.5"], "name 'w' at row 3 repeats row 1"),
])
def test_marginal_means_repeated_name_is_rejected(tmp_path, lines, repeat):
    path = tmp_path / "marg.csv"
    write_lines(path, ["name,value"] + lines)
    message = rf"^{re.escape(str(path))}: {re.escape(repeat)}$"
    with pytest.raises(sw.ValidationError, match=message):
        sw.load_population_summary(path, "marginal_means")


@pytest.mark.parametrize("level", ["0.5", "-2.5", "1e19"])
def test_joint_cell_levels_must_be_integers(tmp_path, level):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,w_bin,probability", "0,0,0.5", f"1,{level},0.5"])
    message = rf"^{re.escape(str(path))}: value .* at row 2, column 'w_bin' is not an integer$"
    with pytest.raises(sw.NonIntegerCellError, match=message):
        sw.load_population_summary(path, "joint_cells")


def test_joint_cell_levels_accept_integral_numbers(tmp_path):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,w_bin,probability", "0,-0,0.5", "1,2.0,0.25",
                       "1,-3e2,0.25"])
    summary = sw.load_population_summary(path, "joint_cells")
    assert summary.levels.dtype == np.int64
    assert summary.levels.tolist() == [[0, 0], [1, 2], [1, -300]]


@pytest.mark.parametrize("size", ["2.5", "-0.5"])
def test_marginal_population_size_must_be_an_integer(tmp_path, size):
    path = tmp_path / "marg.csv"
    write_lines(path, ["name,value", "z2,0.1", f"N,{size}", "w,0.0"])
    message = rf"^{re.escape(str(path))}: value .* at row 2, column 'value' is not an integer$"
    with pytest.raises(sw.NonIntegerCellError, match=message):
        sw.load_population_summary(path, "marginal_means")
    write_lines(path, ["name,value", "z2,0.1", "N,1000.0", "w,0.0"])
    summary = sw.load_population_summary(path, "marginal_means")
    assert summary.population_size == 1000
    assert type(summary.population_size) is int


@pytest.mark.parametrize("kind, lines, error, message", [
    ("marginal_means", ["name,value", "z2,0.1", "N,0"], sw.ValidationError,
     "population_size must be a positive finite number, got 0"),
    ("joint_cells", ["d,probability", "0,1.5", "1,-0.5"], sw.ValidationError,
     "cell probabilities must be nonnegative"),
    ("joint_cells", ["d,probability", "0,0.5", "0,0.5"], sw.DuplicateCellError,
     "duplicate cell (0,) in row 2"),
])
def test_summary_field_errors_name_the_file(tmp_path, kind, lines, error,
                                            message):
    path = tmp_path / "summary.csv"
    write_lines(path, lines)
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
        sw.load_population_summary(path, kind)


@pytest.mark.parametrize("kind, lines, message", [
    ("joint_cells", ["d,w_bin,probability", "0,0,0.5", "1,1e400,0.5"],
     "non-finite value '1e400' at row 2, column 'w_bin'"),
    ("joint_cells", ["d,w_bin,probability", "0,-inf,0.5", "1,1,0.5"],
     "non-finite value '-inf' at row 1, column 'w_bin'"),
    ("joint_cells", ["d,probability", "0,inf", "1,0.5"],
     "non-finite value 'inf' at row 1, column 'probability'"),
    ("marginal_means", ["name,value", "z2,0.1", "N,inf", "w,0.0"],
     "non-finite value 'inf' at row 2, column 'value'"),
    ("marginal_means", ["name,value", "z2,0.1", "N,1e400", "w,0.0"],
     "non-finite value '1e400' at row 2, column 'value'"),
    ("marginal_means", ["name,value", "N,10", "z2,inf"],
     "non-finite value 'inf' at row 2, column 'value'"),
])
def test_summary_non_finite_cell_is_rejected(tmp_path, kind, lines, message):
    path = tmp_path / "summary.csv"
    write_lines(path, lines)
    with pytest.raises(sw.NonNumericCellError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        sw.load_population_summary(path, kind)


# ---------------------------------------------------------------------------
# result tables


def test_result_table_interval_invariant():
    with pytest.raises(sw.ValidationError):
        ResultTable(method=["pl"], parameter=["z1"], estimate=[2.0],
                    std_error=[0.1], ci_lower=[0.0], ci_upper=[1.0])
    table = ResultTable(method=["pl"], parameter=["z1"], estimate=[0.5],
                        std_error=[0.1], ci_lower=[0.3], ci_upper=[0.7])
    assert table.columns["estimate"] == [0.5]


def test_result_table_serialization_17_digits(tmp_path):
    table = ResultTable(name=["x"], value=[1.0 / 3.0])
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    table.write_csv(csv_path)
    table.write_json(json_path)
    text = csv_path.read_text()
    assert "0.33333333333333331" in text
    parsed = json.loads(json_path.read_text())
    assert parsed[0]["value"] == 1.0 / 3.0


# pi values a weights table may hold: signed zeros, subnormals, extremes and
# non-finite values, whose reciprocals are infinite or subnormal in turn.
EDGE_VALUES = np.array([0.5, 1.0 / 3.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                        1e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


# Columns of arrays go out through whole-column conversions, lists of Python
# numbers one cell at a time through format_number; both write the same bytes.
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weights_table_from_columns_writes_the_appended_bytes(tmp_path, fmt):
    with np.errstate(divide="ignore", over="ignore"):
        weight = 1.0 / EDGE_VALUES
    rows = np.arange(1, EDGE_VALUES.size + 1)
    by_column = ResultTable(row=rows, pi_hat=EDGE_VALUES, weight=weight)
    by_row = ResultTable(row=rows.tolist(), pi_hat=EDGE_VALUES.tolist(),
                         weight=weight.tolist())
    by_column.write(tmp_path / "columns", fmt)
    by_row.write(tmp_path / "rows", fmt)
    written = (tmp_path / "columns").read_bytes()
    assert written == (tmp_path / "rows").read_bytes()
    if fmt == "json":
        assert json.loads(written)[-1] == {"row": 11, "pi_hat": None,
                                           "weight": None}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_table_from_columns_writes_the_appended_bytes(tmp_path, fmt):
    estimate = np.array([-2.0, 0.5, 1e-320, -0.0])
    std_error = np.array([0.25, np.inf, 1e308, 0.0])
    lower, upper = estimate - std_error, estimate + std_error
    names = ["intercept", "z1", "a,b", 'say "x"']
    by_column = ResultTable(
        method=["pl"] * 4, parameter=names, estimate=estimate,
        std_error=std_error, ci_lower=lower, ci_upper=upper)
    by_row = ResultTable(
        method=["pl"] * 4, parameter=names, estimate=estimate.tolist(),
        std_error=std_error.tolist(), ci_lower=lower.tolist(),
        ci_upper=upper.tolist())
    by_column.write(tmp_path / "columns", fmt)
    by_row.write(tmp_path / "rows", fmt)
    written = (tmp_path / "columns").read_text(encoding="utf-8")
    assert written == (tmp_path / "rows").read_text(encoding="utf-8")
    if fmt == "csv":
        read_back = [row[1] for row in csv.reader(io.StringIO(written))][1:]
    else:
        read_back = [row["parameter"] for row in json.loads(written)]
    assert read_back == names


def test_result_table_from_columns_checks_its_rows():
    with pytest.raises(sw.ValidationError, match="differ in length"):
        ResultTable(row=np.arange(3), pi_hat=np.ones(2))
    for estimate in (2.0, -1.0, np.nan):
        with pytest.raises(sw.ValidationError, match="bracket"):
            ResultTable(estimate=np.array([0.5, estimate]),
                        ci_lower=np.zeros(2), ci_upper=np.ones(2))


def reference_texts(values):
    """(CSV texts, JSON texts) of one column, as the earlier writer made
    them: one f-string per cell."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        if values.dtype.kind == "f":
            texts = [f"{v:.17g}" for v in values.tolist()]
        else:
            texts = [str(v) for v in values.tolist()]
        finite = np.isfinite(values).tolist()
        return texts, [t if ok else "null" for t, ok in zip(texts, finite)]
    texts, json_texts = [], []
    for value in values:
        if isinstance(value, (int, float, np.integer, np.floating)):
            text = format_number(value)
            finite = (not isinstance(value, (float, np.floating))
                      or np.isfinite(value))
            json_texts.append(text if finite else "null")
        else:
            text = str(value)
            json_texts.append(json.dumps(text))
        texts.append(text)
    return texts, json_texts


def reference_bytes(table, fmt):
    """The bytes the earlier writer (per-cell f-strings, ``csv.writer``)
    wrote for ``table``."""
    formatted = [reference_texts(table.columns[c]) for c in table.column_names]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.column_names)
        writer.writerows(zip(*[texts for texts, _ in formatted]))
    else:
        fields = [[f"{json.dumps(name)}: {text}" for text in json_texts]
                  for name, (_, json_texts) in zip(table.column_names, formatted)]
        rows = ["  {" + ", ".join(cells) + "}" for cells in zip(*fields)]
        lines = ["[", *(row + "," for row in rows[:-1]), *rows[-1:], "]"]
        out.write("\n".join(lines) + "\n")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_and_text_cells_write_the_reference_bytes(
        tmp_path, fmt):
    tables = [
        ResultTable(
            row=np.arange(1, 6),
            weight=np.array([0.5, np.nan, np.inf, -np.inf, 2.0]),
            name=["a", "inf", "nan", "-inf", 'say "hi", %s'],
            **{"100% sure": [1.5, np.nan, "inf", 3, -np.inf]}),
        ResultTable(row=np.arange(3), weight=np.array([0.25, 1e308, 5e-324])),
        ResultTable(method=["pl", "cl"], estimate=[np.inf, 0.1],
                    note=["inf", ""]),
    ]
    for i, table in enumerate(tables):
        path = tmp_path / f"out{i}.{fmt}"
        table.write(path, fmt)
        assert path.read_bytes() == reference_bytes(table, fmt)


# Text cells and names: CSV's delimiter, quote and line breaks, spaces and
# words a number's text could be mistaken for.
TEXTS = st.one_of(
    st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "1", "é"]),
            max_size=5),
    st.sampled_from(["nan", "inf", "-inf", "null", " x", "True"]),
    st.text(max_size=4))
# The values a cell of a list column may hold.
CELLS = st.one_of(
    st.integers(), st.floats(), st.sampled_from(EDGE_VALUES.tolist()),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.uint64, st.integers(0, 2**64 - 1)),
    st.booleans(), st.builds(np.bool_, st.booleans()), st.just(""), TEXTS)
NAMES = TEXTS.filter(lambda name: name not in ("ci_lower", "estimate",
                                               "ci_upper"))


@st.composite
def result_tables(draw):
    """A table of whole columns: arrays or lists of cells."""
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    n = draw(st.integers(0, 6))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["int64", "int32", "uint64", "float64",
                                     "cells"]))
        if kind == "cells":
            columns[name] = draw(st.lists(CELLS, min_size=n, max_size=n))
        elif kind == "float64":
            columns[name] = np.array(draw(st.lists(
                st.one_of(st.sampled_from(EDGE_VALUES.tolist()), st.floats()),
                min_size=n, max_size=n)), dtype=np.float64)
        else:
            info = np.iinfo(kind)
            columns[name] = np.array(draw(st.lists(
                st.integers(int(info.min), int(info.max)),
                min_size=n, max_size=n)), dtype=kind)
    return ResultTable(**columns)


@settings(max_examples=300, deadline=None)
@given(result_tables(), st.sampled_from(["csv", "json"]))
# A lone empty field, which csv writes as "".
@example(ResultTable(a=[""]), "csv")
@example(ResultTable(**{"": []}), "csv")
@example(ResultTable(), "json")
# Every name is a column name, the constructor's own parameter's included.
@example(ResultTable(self=[1.5]), "json")
def test_result_table_writes_the_reference_bytes(table, fmt):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out"
        table.write(path, fmt)
        assert path.read_bytes() == reference_bytes(table, fmt)


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "selweight.cli", *args],
                          capture_output=True, text=True, env=cli_env())


def test_cli_simulate_deterministic_across_threads(tmp_path):
    outs = []
    for threads, name in ((1, "a.csv"), (2, "b.csv")):
        out = tmp_path / name
        result = run_cli("simulate", "--dag", "1", "--setup", "1",
                         "--replications", "20", "--seed", "7",
                         "--population-size", "8000",
                         "--threads", str(threads),
                         "--out", str(out), "--format", "csv")
        assert result.returncode == 0, result.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_simulate_json_mirrors_csv(tmp_path):
    csv_out = tmp_path / "study.csv"
    json_out = tmp_path / "study.json"
    for fmt, out in (("csv", csv_out), ("json", json_out)):
        result = run_cli("simulate", "--dag", "1", "--setup", "1",
                         "--replications", "6", "--seed", "3",
                         "--population-size", "5000", "--method",
                         "unweighted,cl", "--out", str(out),
                         "--format", fmt)
        assert result.returncode == 0, result.stderr
    rows = json.loads(json_out.read_text())
    header, *lines = csv_out.read_text().strip().splitlines()
    assert header.split(",")[0] == "method"
    assert len(rows) == len(lines)
    assert rows[0]["method"] == "unweighted"
    assert rows[0]["rmse_relative"] == 1.0


def test_cli_fit_unweighted_shows_selection_bias_direction(tmp_path, roles_file):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=31)
    pop = sw.generate_population(cfg, 0)
    data = tmp_path / "internal.csv"
    export_population(pop, pop.s == 1.0, data)
    out = tmp_path / "fit.csv"
    result = run_cli("fit", "--method", "unweighted", "--data", str(data),
                     "--roles", str(roles_file), "--out", str(out))
    assert result.returncode == 0, result.stderr
    rows = {line.split(",")[1]: line.split(",")
            for line in out.read_text().strip().splitlines()[1:]}
    estimate = float(rows["z1"][2])
    # Covariate-driven selection biases the z1 coefficient downward.
    assert estimate < 0.5
    lower, upper = float(rows["z1"][4]), float(rows["z1"][5])
    assert lower <= estimate <= upper


def test_cli_fit_pl_close_to_truth(tmp_path, roles_file):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=31)
    pop = sw.generate_population(cfg, 0)
    data = tmp_path / "internal.csv"
    ext = tmp_path / "external.csv"
    export_population(pop, pop.s == 1.0, data)
    export_population(pop, pop.s_ext == 1.0, ext)
    out = tmp_path / "fit.csv"
    result = run_cli("fit", "--method", "pl", "--data", str(data),
                     "--external-data", str(ext), "--roles", str(roles_file),
                     "--include-outcome-in-selection",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    rows = {line.split(",")[1]: line.split(",")
            for line in out.read_text().strip().splitlines()[1:]}
    for name in ("z1", "z2"):
        estimate = float(rows[name][2])
        se = float(rows[name][3])
        assert abs(estimate - 0.5) <= 4 * se


def test_cli_weights_cl_calibration_residual(tmp_path, roles_file):
    cfg = sw.SimulationConfig(dag=3, setup=1, seed=17, n_population=20_000)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s == 1.0
    data = tmp_path / "internal.csv"
    export_population(pop, mask, data)
    marg = tmp_path / "marginals.csv"
    write_lines(marg, ["name,value",
                       f"z2,{format_number(pop.z2.mean())}",
                       f"w,{format_number(pop.w.mean())}",
                       f"d,{format_number(pop.d.mean())}",
                       f"N,{pop.n}"])
    out = tmp_path / "weights.csv"
    result = run_cli("weights", "--method", "cl", "--data", str(data),
                     "--summary", str(marg), "--roles", str(roles_file),
                     "--include-outcome-in-selection", "--out", str(out))
    assert result.returncode == 0, result.stderr
    pi = np.array([float(line.split(",")[1])
                   for line in out.read_text().strip().splitlines()[1:]])
    x = np.column_stack([np.ones(int(mask.sum())), pop.z2[mask],
                         pop.w[mask], pop.d[mask]])
    totals = np.array([pop.n, pop.z2.sum(), pop.w.sum(), pop.d.sum()])
    residual = x.T @ (1.0 / pi) - totals
    assert np.max(np.abs(residual)) <= 1e-6 * pop.n


def test_cli_weights_winsorize_and_augment(tmp_path, roles_file):
    cfg = sw.SimulationConfig(dag=2, setup=1, seed=13, n_population=8000)
    pop = sw.generate_population(cfg, 0)
    mask = pop.s == 1.0
    n = int(mask.sum())
    data = tmp_path / "internal.csv"
    fields = ["d", "z1", "z2", "w", "s", "s_ext", "pi_ext", "p_pop", "p_int"]
    rng = np.random.default_rng(5)
    p_pop = rng.uniform(0.2, 0.4, size=n)
    p_int = rng.uniform(0.3, 0.5, size=n)
    rows = [",".join(fields)]
    idx = np.flatnonzero(mask)
    for j, i in enumerate(idx):
        vals = [pop.d[i], pop.z1[i], pop.z2[i], pop.w[i], pop.s[i],
                pop.s_ext[i], pop.pi_ext[i], p_pop[j], p_int[j]]
        rows.append(",".join(format_number(float(v)) for v in vals))
    write_lines(data, rows)
    ext = tmp_path / "external.csv"
    export_population(pop, pop.s_ext == 1.0, ext)
    out = tmp_path / "weights.csv"
    result = run_cli("weights", "--method", "pl", "--data", str(data),
                     "--external-data", str(ext), "--roles", str(roles_file),
                     "--winsorize", "0.025", "0.975",
                     "--augment-outcome", "p_pop", "p_int",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    pi = np.array([float(line.split(",")[1])
                   for line in out.read_text().strip().splitlines()[1:]])
    assert np.all((pi > 0) & (pi <= 1))


def write_replication_files(pop, directory):
    """Write one population as the CLI's internal/external/cells/means files."""
    d = pop.d.astype(int)
    z2_bin, w_bin = sw.coarsen(pop.z2), sw.coarsen(pop.w)
    fields = {"d": d, "z1": pop.z1, "z2": pop.z2, "w": pop.w, "s": pop.s,
              "s_ext": pop.s_ext, "pi_ext": pop.pi_ext, "z2_bin": z2_bin,
              "w_bin": w_bin}
    for name, mask in (("internal", pop.s == 1.0), ("external", pop.s_ext == 1.0)):
        rows = [",".join(fields)]
        for i in np.flatnonzero(mask):
            rows.append(",".join(format_number(v[i]) for v in fields.values()))
        write_lines(directory / f"{name}.csv", rows)
    cells, counts = np.unique(np.column_stack([d, z2_bin, w_bin]), axis=0,
                              return_counts=True)
    write_lines(directory / "cells.csv", ["d,z2_bin,w_bin,probability"] + [
        ",".join(format_number(v) for v in (*cell, count / pop.n))
        for cell, count in zip(cells.tolist(), counts)])
    write_lines(directory / "means.csv", ["name,value", f"N,{pop.n}"] + [
        f"{name},{format_number(values.mean())}"
        for name, values in (("z2", pop.z2), ("w", pop.w), ("d", pop.d))])
    write_lines(directory / "roles.cfg", ROLES_LINES)
    write_lines(directory / "roles_ps.cfg", [
        "outcome=d", "disease_covariates=z1,z2",
        "selection_covariates=z2_bin,w_bin"])


def method_args(method, directory):
    roles = "roles_ps.cfg" if method == "ps" else "roles.cfg"
    args = ["--data", str(directory / "internal.csv"),
            "--roles", str(directory / roles)]
    if method in ("pl", "sr"):
        args += ["--external-data", str(directory / "external.csv")]
    if method in ("ps", "cl"):
        summary = "cells.csv" if method == "ps" else "means.csv"
        args += ["--summary", str(directory / summary)]
    if method != "ps":
        args.append("--include-outcome-in-selection")
    return args


def read_fit(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    return (np.array([float(r[2]) for r in rows]),
            np.array([float(r[3]) for r in rows]))


REPLICATION_CFG = sw.SimulationConfig(dag=3, setup=1, seed=11,
                                      n_population=6000)


@pytest.fixture(scope="module")
def replication_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("replication")
    write_replication_files(sw.generate_population(REPLICATION_CFG, 0),
                            directory)
    return directory


@pytest.mark.parametrize("method", ["ps", "cl"])
def test_cli_empty_summary_is_a_validation_error(replication_files, tmp_path,
                                                 method):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    args = method_args(method, replication_files)
    args[args.index("--summary") + 1] = str(empty)
    result = run_cli("fit", "--method", method, *args,
                     "--population-size", str(REPLICATION_CFG.population_size),
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: validation: {empty}: empty file"]


def test_cli_fit_names_the_fit_of_a_collinear_disease_design(replication_files,
                                                            tmp_path):
    roles = tmp_path / "roles.cfg"
    # Every internal row has s = 1, so s repeats the intercept.
    write_lines(roles, ["outcome=d", "disease_covariates=z1,s"])
    result = run_cli("fit", "--method", "unweighted",
                     "--data", str(replication_files / "internal.csv"),
                     "--roles", str(roles), "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.startswith(
        "error: validation: weighted logistic fit: design is rank deficient: "
        "singular factorization: pivot")


def test_cli_simulate_rejects_a_repeated_method(tmp_path):
    out = tmp_path / "study.csv"
    result = run_cli("simulate", "--dag", "1", "--setup", "1",
                     "--replications", "2", "--population-size", "4000",
                     "--method", "unweighted,unweighted", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: validation: method 'unweighted' is repeated"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "weights"])
def test_cli_ps_loads_unmapped_level_columns(replication_files, tmp_path,
                                             command):
    outputs = []
    for roles in ("roles.cfg", "roles_ps.cfg"):
        args = method_args("ps", replication_files)
        args[args.index("--roles") + 1] = str(replication_files / roles)
        out = tmp_path / f"{roles}.csv"
        result = run_cli(command, "--method", "ps", *args,
                         "--population-size",
                         str(REPLICATION_CFG.population_size), "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout, result.stderr, out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("augment", [[], ["--augment-outcome", "w_bin", "w_bin"]],
                         ids=["no-augment", "augment-w_bin"])
@pytest.mark.parametrize("roles", ["roles.cfg", "roles_ps.cfg"])
def test_cli_ps_level_column_missing_from_data(replication_files, tmp_path,
                                               roles, augment):
    lines = (replication_files / "internal.csv").read_text(
        encoding="utf-8").splitlines()
    drop = lines[0].split(",").index("w_bin")
    data = tmp_path / "internal.csv"
    write_lines(data, [",".join(f for i, f in enumerate(line.split(","))
                                if i != drop) for line in lines])
    args = method_args("ps", replication_files)
    args[args.index("--roles") + 1] = str(replication_files / roles)
    args[args.index("--data") + 1] = str(data)
    result = run_cli("fit", "--method", "ps", *args, *augment,
                     "--population-size", str(REPLICATION_CFG.population_size),
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: {data}: missing columns ['w_bin']"]


@pytest.mark.parametrize("command", ["fit", "weights"])
def test_cli_prints_summary_warnings(replication_files, tmp_path, command):
    lines = (replication_files / "cells.csv").read_text(
        encoding="utf-8").splitlines()
    cells = tmp_path / "cells.csv"
    write_lines(cells, lines[:1] + [
        f"{head},{format_number(float(p) * 1.0005)}"
        for head, p in (line.rsplit(",", 1) for line in lines[1:])])
    args = method_args("ps", replication_files)
    args[args.index("--summary") + 1] = str(cells)
    out = tmp_path / "out.csv"
    result = run_cli(command, "--method", "ps", *args, "--population-size",
                     str(REPLICATION_CFG.population_size), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "warning: cell probabilities summed to 1.000500; renormalized to 1"]
    assert out.read_text(encoding="utf-8").startswith(
        "method," if command == "fit" else "row,pi_hat,weight\n1,")


def replace_field(path, column, row, value):
    """Rewrite one data row's field of a CSV written by write_lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(fields)
    write_lines(path, lines)


@pytest.mark.parametrize("case", ["data level", "summary level", "summary N"])
def test_cli_non_integer_cells_are_validation_errors(replication_files, tmp_path,
                                                     case):
    method = "cl" if case == "summary N" else "ps"
    args = method_args(method, replication_files)
    if case == "data level":
        target, column, row = "internal.csv", "w_bin", 3
    elif case == "summary level":
        target, column, row = "cells.csv", "z2_bin", 2
    else:
        target, column, row = "means.csv", "value", 1
    bad = tmp_path / target
    bad.write_text((replication_files / target).read_text(encoding="utf-8"),
                   encoding="utf-8")
    replace_field(bad, column, row, "0.5")
    args[args.index(str(replication_files / target))] = str(bad)
    result = run_cli("fit", "--method", method, *args,
                     "--population-size", str(REPLICATION_CFG.population_size),
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: {bad}: value 0.5 at row {row}, column "
        f"{column!r} is not an integer"]


# (column, value, message after "<path>: ") of one defect on data row 2
BLANK_LINE_DEFECTS = {
    "cell": ("z2", "x", "non-numeric value 'x' at row 2, column 'z2'"),
    "outcome": ("d", "2",
                "column 'd' must be coded 0/1 (first offending data row 2)"),
    "ps level": ("w_bin", "0.5",
                 "value 0.5 at row 2, column 'w_bin' is not an integer"),
}


@pytest.mark.parametrize("defect", list(BLANK_LINE_DEFECTS))
def test_cli_row_numbers_skip_blank_lines(replication_files, tmp_path, defect):
    column, value, message = BLANK_LINE_DEFECTS[defect]
    source = replication_files / "internal.csv"
    lines = source.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "internal.csv"
    write_lines(bad, lines[:2] + [""] + lines[2:])
    replace_field(bad, column, 3, value)
    args = method_args("ps", replication_files)
    args[args.index(str(source))] = str(bad)
    result = run_cli("fit", "--method", "ps", *args,
                     "--population-size", str(REPLICATION_CFG.population_size),
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: validation: {bad}: {message}"]


@pytest.mark.parametrize("row, error, message", [
    ("1,0.5,0.5", sw.NonIntegerCellError,
     "value 0.5 at row 2, column 'w_bin' is not an integer"),
    ("1,1,x", sw.NonNumericCellError,
     "non-numeric value 'x' at row 2, column 'probability'"),
    ("1,1,nan", sw.NonNumericCellError,
     "missing value at row 2, column 'probability'"),
    ("1,,0.5", sw.NonNumericCellError, "missing value at row 2, column 'w_bin'"),
    ("x,1,0.5", sw.NonNumericCellError,
     "non-numeric value 'x' at row 2, column 'd'"),
    ("1,0.5", sw.ValidationError, "row 2 has 2 fields, expected 3"),
])
def test_joint_cell_rows_skip_blank_lines(tmp_path, row, error, message):
    path = tmp_path / "cells.csv"
    write_lines(path, ["d,w_bin,probability", "", "0,0,0.5", "", row])
    with pytest.raises(error,
                       match=f"^{re.escape(f'{path}: {message}')}$") as info:
        sw.load_population_summary(path, "joint_cells")
    assert info.type is error


@pytest.mark.parametrize("value, message", [
    ("x", "non-numeric value 'x' at row 1, column 'z2'"),
    ("NA", "missing value at row 1, column 'z2'"),
    ("1e999", "non-finite value '1e999' at row 1, column 'z2'"),
])
def test_cli_non_numeric_cell_names_its_file(replication_files, tmp_path,
                                             value, message):
    source = replication_files / "external.csv"
    bad = tmp_path / "external.csv"
    bad.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    replace_field(bad, "z2", 1, value)
    args = method_args("pl", replication_files)
    args[args.index(str(source))] = str(bad)
    result = run_cli("fit", "--method", "pl", *args,
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: validation: {bad}: {message}"]


@pytest.mark.parametrize("target, column, row", [
    ("means.csv", "value", 2),     # z2's mean; row 1 is N
    ("internal.csv", "z2", 1),     # a column fit --method cl reads
    ("internal.csv", "pi_ext", 1),  # a mapped column it does not read
    ("internal.csv", "z2_bin", 1),  # an unmapped column
])
def test_cli_overlong_field_is_a_validation_error(replication_files, tmp_path,
                                                  target, column, row):
    bad = tmp_path / target
    bad.write_text((replication_files / target).read_text(encoding="utf-8"),
                   encoding="utf-8")
    replace_field(bad, column, row, LONG_NUMBER)
    args = method_args("cl", replication_files)
    args[args.index(str(replication_files / target))] = str(bad)
    result = run_cli("fit", "--method", "cl", *args,
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: {bad}: field larger than field limit (131072)"]


@pytest.mark.parametrize("target, column, row, method", [
    ("internal.csv", "z1", 0, "cl"),       # the header
    ("internal.csv", "z2", 1, "cl"),       # the first data row
    ("internal.csv", "w", -1, "cl"),       # the last data row
    ("internal.csv", "pi_ext", 5, "cl"),   # a column fit does not read
    ("external.csv", "z2", 2, "pl"),
    ("means.csv", "value", 2, "cl"),
    ("cells.csv", "probability", 1, "ps"),
    ("roles.cfg", None, None, "cl"),
])
def test_cli_non_utf8_byte_is_a_validation_error(replication_files, tmp_path,
                                                 target, column, row, method):
    bad = tmp_path / target
    bad.write_text((replication_files / target).read_text(encoding="utf-8"),
                   encoding="utf-8")
    if column is None:
        with bad.open("a", encoding="utf-8") as handle:
            handle.write("# @BAD@\n")
    else:
        lines = bad.read_text(encoding="utf-8").splitlines()
        row = row % len(lines)
        value = lines[row].split(",")[lines[0].split(",").index(column)]
        replace_field(bad, column, row, value + "@BAD@")
    bad.write_bytes(bad.read_bytes().replace(b"@BAD@", b"\xff"))
    args = method_args(method, replication_files)
    args[args.index(str(replication_files / target))] = str(bad)
    result = run_cli("fit", "--method", method, *args,
                     "--population-size", str(REPLICATION_CFG.population_size),
                     "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: {bad}: not UTF-8 text "
        "(byte 0xff: invalid start byte)"]


def rename_header(source, path, renames):
    """Write ``source`` to ``path`` with header names replaced by ``renames``."""
    lines = source.read_text(encoding="utf-8").splitlines()
    lines[0] = ",".join(renames.get(name, name) for name in lines[0].split(","))
    write_lines(path, lines)


def run_ps_fit(replication_files, tmp_path, replace):
    """``fit --method ps`` on the replication files, with each input file
    named in ``replace`` swapped for the given path."""
    args = method_args("ps", replication_files)
    for name, path in replace.items():
        args[args.index(str(replication_files / name))] = str(path)
    out = tmp_path / "out.csv"
    result = run_cli("fit", "--method", "ps", *args, "--population-size",
                     str(REPLICATION_CFG.population_size), "--out", str(out))
    return result, out


@pytest.mark.parametrize("target, renames, column", [
    ("internal.csv", {"w": "z1"}, "z1"),  # w is not read by ps
    ("cells.csv", {"z2_bin": "d"}, "d"),
])
def test_cli_repeated_column_is_a_validation_error(replication_files, tmp_path,
                                                   target, renames, column):
    bad = tmp_path / target
    rename_header(replication_files / target, bad, renames)
    result, out = run_ps_fit(replication_files, tmp_path, {target: bad})
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: {bad}: header repeats column {column!r}"]
    assert not out.exists()


def test_cli_repeated_unread_columns_are_allowed(replication_files, tmp_path):
    data = tmp_path / "internal.csv"
    rename_header(replication_files / "internal.csv", data,
                  {"w": "note", "s": "note"})
    result, out = run_ps_fit(replication_files, tmp_path, {})
    assert result.returncode == 0, result.stderr
    expected = out.read_bytes()
    result, out = run_ps_fit(replication_files, tmp_path, {"internal.csv": data})
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == expected


def with_bom(source, path):
    path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return path


@pytest.mark.parametrize("target, method", [
    ("internal.csv", "ps"), ("cells.csv", "ps"), ("means.csv", "cl"),
    ("roles.cfg", "cl"),
])
def test_cli_byte_order_mark_is_not_part_of_the_first_name(
        replication_files, tmp_path, target, method):
    outputs = []
    for bom in (False, True):
        args = method_args(method, replication_files)
        if bom:
            source = replication_files / target
            args[args.index(str(source))] = str(with_bom(source,
                                                         tmp_path / target))
        out = tmp_path / f"out_{bom}.csv"
        result = run_cli("fit", "--method", method, *args, "--population-size",
                         str(REPLICATION_CFG.population_size), "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout, result.stderr, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_method_lists_are_the_data_methods():
    assert sw.DATA_METHODS == ("unweighted", "pl", "sr", "ps", "cl")
    assert sw.DATA_METHODS == tuple(
        m for m in sw.simulation.METHOD_TABLE if m != "oracle_weights")
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command in ("fit", "weights"):
        method = next(action for action in commands[command]._actions
                      if action.dest == "method")
        assert tuple(method.choices) == sw.DATA_METHODS
    simulate = parser.parse_args(["simulate", "--out", "study.csv"])
    assert simulate.method == ",".join(sw.DATA_METHODS)
    default = inspect.signature(sw.run_study).parameters["methods"].default
    assert default == sw.DATA_METHODS


@pytest.mark.parametrize("command", ["fit", "weights"])
@pytest.mark.parametrize("size", ["0", "-5"])
def test_cli_population_size_below_one_is_rejected(replication_files, tmp_path,
                                                   command, size):
    out = tmp_path / "out.csv"
    result = run_cli(command, "--method", "pl",
                     *method_args("pl", replication_files),
                     "--population-size", size, "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: --population-size must be at least 1, got {size}"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["unweighted", "pl"])
def test_cli_population_size_too_large_for_a_float_is_rejected(
        replication_files, tmp_path, method):
    size = "9" * 400
    out = tmp_path / "out.csv"
    code, stderr = run_main(["fit", "--method", method,
                             *method_args(method, replication_files),
                             "--population-size", size, "--out", out])
    assert (code, stderr) == (2, [
        "error: validation: n_population must be a positive finite number, "
        f"got {size}"])
    assert not out.exists()


@pytest.mark.parametrize("method", ["pl", "sr", "ps", "cl"])
def test_cli_fit_matches_run_replication_exactly(replication_files, method):
    result = sw.run_replication(REPLICATION_CFG, 0, methods=(method,))[method]
    assert not result.failed, result.error
    out = replication_files / f"fit_{method}.csv"
    proc = run_cli("fit", "--method", method,
                   *method_args(method, replication_files),
                   "--population-size", str(REPLICATION_CFG.population_size),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    estimate, std_error = read_fit(out)
    assert np.array_equal(estimate, result.model.coefficients)
    assert np.array_equal(std_error, np.sqrt(np.diag(result.model.vcov)))
    # The weights command writes the replication's clamped pi_hat.
    out = replication_files / f"weights_{method}.csv"
    proc = run_cli("weights", "--method", method,
                   *method_args(method, replication_files),
                   "--population-size", str(REPLICATION_CFG.population_size),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    pi = np.array([float(line.split(",")[1])
                   for line in out.read_text().strip().splitlines()[1:]])
    assert pi.tobytes() == result.weight_set.pi_hat.tobytes()


# The columns each command reads on the replication files, as (internal
# file, external file or None).  The internal file reads the outcome d; fit
# adds the disease covariates z1, z2; pl, sr and cl the selection
# covariates z2, w, and ps its level columns z2_bin, w_bin; sr and fit pl
# the external indicator s_ext; fit pl the external probabilities pi_ext.
# The external file reads d, the selection covariates and pi_ext, and the
# selection indicator s for sr.
READ_COLUMNS = {
    ("fit", "unweighted"): ({"d", "z1", "z2"}, None),
    ("fit", "pl"): ({"d", "z1", "z2", "w", "s_ext", "pi_ext"},
                    {"d", "z2", "w", "pi_ext"}),
    ("fit", "sr"): ({"d", "z1", "z2", "w", "s_ext"},
                    {"d", "z2", "w", "pi_ext", "s"}),
    ("fit", "ps"): ({"d", "z1", "z2", "z2_bin", "w_bin"}, None),
    ("fit", "cl"): ({"d", "z1", "z2", "w"}, None),
    ("weights", "pl"): ({"d", "z2", "w"}, {"d", "z2", "w", "pi_ext"}),
    ("weights", "sr"): ({"d", "z2", "w", "s_ext"},
                        {"d", "z2", "w", "pi_ext", "s"}),
    ("weights", "ps"): ({"d", "z2_bin", "w_bin"}, None),
    ("weights", "cl"): ({"d", "z2", "w"}, None),
}


def test_read_columns_cover_every_command_the_cli_accepts():
    assert set(READ_COLUMNS) == {
        (command, method) for command in ("fit", "weights")
        for method in sw.DATA_METHODS
        if (command, method) != ("weights", "unweighted")}


def run_main(argv):
    """``cli.main(argv)`` in this process, as (exit code, stderr lines)."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([str(arg) for arg in argv])
    return code, stderr.getvalue().splitlines()


def mapped_file_columns(replication_files, command, method):
    """(argv without --out, source file, its read columns, its mapped
    columns) for each data file of ``command --method method``."""
    args = [*method_args(method, replication_files), "--population-size",
            str(REPLICATION_CFG.population_size)]
    mapped = sw.parse_role_map(args[args.index("--roles") + 1]).mapped_columns()
    argv = [command, "--method", method, *args]
    for target, read in zip(("internal.csv", "external.csv"),
                            READ_COLUMNS[command, method]):
        if read is not None:
            yield argv, replication_files / target, read, mapped


def swap(argv, source, path):
    return [path if arg == str(source) else arg for arg in argv]


@pytest.mark.parametrize("command, method", list(READ_COLUMNS))
def test_cli_checks_the_cells_of_the_columns_it_reads(replication_files,
                                                      tmp_path, command,
                                                      method):
    out = tmp_path / "out.csv"
    clean = None
    for argv, source, read, mapped in mapped_file_columns(
            replication_files, command, method):
        if clean is None:
            code, stderr = run_main([*argv, "--out", out])
            assert code == 0, stderr
            clean = out.read_bytes()
        bad = tmp_path / source.name
        for column in mapped:
            bad.write_bytes(source.read_bytes())
            replace_field(bad, column, 2, "x")
            out.unlink(missing_ok=True)
            code, stderr = run_main([*swap(argv, source, bad), "--out", out])
            if column in read:
                assert (code, stderr) == (2, [
                    f"error: validation: {bad}: non-numeric value 'x' at "
                    f"row 2, column {column!r}"]), column
            else:
                assert code == 0, (column, stderr)
                assert out.read_bytes() == clean, column


@pytest.mark.parametrize("command, method", list(READ_COLUMNS))
def test_cli_needs_every_mapped_column_in_the_header(replication_files,
                                                     tmp_path, command, method):
    out = tmp_path / "out.csv"
    for argv, source, read, mapped in mapped_file_columns(
            replication_files, command, method):
        bad = tmp_path / source.name
        for column in mapped:
            rename_header(source, bad, {column: f"{column}_renamed"})
            code, stderr = run_main([*swap(argv, source, bad), "--out", out])
            assert (code, stderr) == (2, [
                f"error: validation: {bad}: missing columns [{column!r}]"])
            assert not out.exists()


def test_cli_augmented_weights_below_one_are_clamped_with_one_warning(
        replication_files, tmp_path):
    # p_pop / p_int = 0.05 / 0.9 divides each case's (d = 1) weight by 18,
    # which takes many of them below 1; each control's is multiplied by 9.5.
    lines = (replication_files / "internal.csv").read_text().splitlines()
    data = tmp_path / "internal.csv"
    write_lines(data, [lines[0] + ",p_pop,p_int"]
                + [line + ",0.05,0.9" for line in lines[1:]])
    args = method_args("pl", replication_files)
    args[args.index(str(replication_files / "internal.csv"))] = str(data)
    out = tmp_path / "weights.csv"
    argv = ["weights", "--method", "pl", *args,
            "--augment-outcome", "p_pop", "p_int", "--out", str(out)]
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr

    # The bytes written before post-processed clamps were counted: pi was
    # 1 / w clipped at 1 only.
    src = FileSource(build_parser().parse_args(argv))
    pi = sw.simulation.METHOD_TABLE["pl"](src).pi_hat
    w = sw.augment_weights_with_outcome(1.0 / pi, src.outcome,
                                        src.sample.column("p_pop"),
                                        src.sample.column("p_int"))
    above = int(np.count_nonzero(1.0 / w > 1.0))
    assert 0 < above < w.size
    pi_parent = np.clip(1.0 / w, None, 1.0)
    expected = tmp_path / "expected.csv"
    ResultTable(row=np.arange(1, w.size + 1), pi_hat=pi_parent,
                weight=1.0 / pi_parent).write(expected, "csv")
    assert out.read_bytes() == expected.read_bytes()
    assert proc.stderr.splitlines() == [
        f"warning: clamped {above} post-processed selection probabilities "
        "into [1e-10, 1]"]


@pytest.mark.parametrize("method", ["pl", "sr", "cl"])
def test_cli_fit_without_selection_covariates_is_intercept_only(
        replication_files, tmp_path, method):
    roles = tmp_path / "roles.cfg"
    write_lines(roles, [line for line in ROLES_LINES
                        if not line.startswith("selection_covariates=")])
    args = method_args(method, replication_files)
    args[args.index("--roles") + 1] = str(roles)
    args.remove("--include-outcome-in-selection")
    argv = ["fit", "--method", method, *args, "--out", str(tmp_path / "fit.csv")]
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    # The same fit with intercept-only selection designs built by hand.
    src = FileSource(build_parser().parse_args(argv))

    def intercept_only(sample):
        return sw.DesignMatrix(np.column_stack([np.ones(sample.n_rows)]),
                               ["intercept"])

    src.selection_design = intercept_only(src.sample)
    if method != "cl":
        src.external_sample = (intercept_only(src.external),
                               src.external.external_probabilities())
    model = sw.simulation.fit_method(
        src, sw.simulation.METHOD_TABLE[method](src))
    estimate, std_error = read_fit(tmp_path / "fit.csv")
    assert np.array_equal(estimate, model.coefficients)
    assert np.array_equal(std_error, np.sqrt(np.diag(model.vcov)))


@pytest.mark.parametrize("method", ["pl", "cl"])
def test_cli_fit_winsorized_weights_take_fixed_weight_sandwich(
        replication_files, method):
    n_pop = REPLICATION_CFG.population_size
    src = sw.simulation.PopulationSource(
        sw.generate_population(REPLICATION_CFG, 0))
    weight_set = sw.simulation.METHOD_TABLE[method](src)
    pi_used = np.clip(
        1.0 / sw.winsorize_weights(1.0 / weight_set.pi_hat, 0.05, 0.95),
        None, 1.0)
    fixed = sw.simulation.fit_method(src, sw.WeightSet(pi_used,
                                                       "post-processed"))
    two_step = sw.simulation.fit_method(src, sw.WeightSet(
        pi_used, weight_set.method, weight_set.alpha_hat))
    expected_se = np.sqrt(np.diag(fixed.vcov))
    assert np.array_equal(fixed.vcov, sw.vcov_known_weights(
        fixed.coefficients, src.disease_design, src.outcome, pi_used, n_pop))

    out = replication_files / f"fit_{method}_winsorized.csv"
    proc = run_cli("fit", "--method", method,
                   *method_args(method, replication_files),
                   "--population-size", str(n_pop),
                   "--winsorize", "0.05", "0.95", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    estimate, std_error = read_fit(out)
    assert np.allclose(estimate, fixed.coefficients, rtol=1e-12, atol=0.0)
    assert np.allclose(std_error, expected_se, rtol=1e-12, atol=0.0)
    # The two-step sandwich recomputes pi from alpha-hat and so describes
    # the unwinsorized weights, not the ones this fit used.
    assert not np.allclose(std_error, np.sqrt(np.diag(two_step.vcov)),
                           rtol=1e-3, atol=0.0)


def test_cli_simulate_config_file(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    write_lines(cfg_file, ["dag=1", "setup=1", "replications=4", "seed=5",
                           "n_population=4000", "theta=-2,0.5,0.5"])
    out_a = tmp_path / "a.csv"
    result = run_cli("simulate", "--config", str(cfg_file),
                     "--method", "unweighted", "--out", str(out_a))
    assert result.returncode == 0, result.stderr
    # explicit flags override the file
    out_b = tmp_path / "b.csv"
    result = run_cli("simulate", "--config", str(cfg_file), "--seed", "5",
                     "--method", "unweighted", "--out", str(out_b))
    assert result.returncode == 0, result.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_simulate_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    write_lines(cfg_file, ["dag=1", "setup=1", "replications=2", "seed=5",
                           "n_population=4000"])
    outputs = []
    for path in (cfg_file, with_bom(cfg_file, tmp_path / "bom.cfg")):
        out = tmp_path / f"{path.stem}.csv"
        result = run_cli("simulate", "--config", str(path),
                         "--method", "unweighted", "--out", str(out))
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_simulate_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    write_lines(cfg_file, ["dag=1", "setup=1", "volume=11"])
    result = run_cli("simulate", "--config", str(cfg_file),
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "unknown key" in result.stderr


@pytest.mark.parametrize("setup, line, message", [
    (1, "z_correlation=1.5", "z_correlation must lie in (-1, 1)"),
    (1, "z_correlation=nan", "z_correlation must lie in (-1, 1)"),
    (2, "setup2_scale=-1", "setup2_scale must lie in (0, 1]"),
    (1, "external_scale=0", "external_scale must lie in (0, 1]"),
    (1, "external_scale=1.5", "external_scale must lie in (0, 1]"),
    (1, "theta=-2,0.5,inf", "theta must be 3 finite numbers"),
    (1, "theta=-2,0.5", "theta must be 3 finite numbers"),
    (1, "nu=-0.6,1.2,0.4,0.5,1", "nu must be 4 finite numbers"),
    (1, "alpha3=nan", "alpha3 must be finite"),
])
def test_cli_simulate_config_rejects_values_the_draw_cannot_use(
        tmp_path, setup, line, message):
    cfg_file = tmp_path / "scenario.cfg"
    write_lines(cfg_file, ["dag=1", f"setup={setup}", "replications=2",
                           "n_population=4000", line])
    out = tmp_path / "x.csv"
    result = run_cli("simulate", "--config", str(cfg_file),
                     "--method", "unweighted,pl", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: validation: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_simulate_rejects_threads_below_one(tmp_path, threads):
    out = tmp_path / "x.csv"
    result = run_cli("simulate", "--dag", "1", "--setup", "1",
                     "--replications", "2", "--population-size", "4000",
                     "--threads", threads, "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: validation: parallelism must be at least 1, got {threads}"]
    assert not out.exists()


def test_cli_simulate_rejects_a_single_replication(tmp_path):
    out = tmp_path / "x.csv"
    result = run_cli("simulate", "--dag", "1", "--setup", "1",
                     "--replications", "1", "--population-size", "4000",
                     "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: validation: replications must be at least 2"]
    assert not out.exists()


def test_cli_simulate_rejects_an_unknown_method(tmp_path):
    out = tmp_path / "x.csv"
    result = run_cli("simulate", "--dag", "1", "--setup", "1",
                     "--method", "unweighted,banana", "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "error: validation: unknown methods ['banana']"]
    assert not out.exists()


def test_cli_simulate_requires_scenario(tmp_path):
    result = run_cli("simulate", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


def test_cli_validation_failure_exit_code(tmp_path, roles_file):
    missing = tmp_path / "data.csv"
    write_lines(missing, ["d,z1", "1,0.5"])
    out = tmp_path / "out.csv"
    result = run_cli("fit", "--method", "unweighted", "--data", str(missing),
                     "--roles", str(roles_file), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("error: validation:")


def test_cli_convergence_failure_exit_code(tmp_path, roles_file):
    # Infeasible calibration totals surface as a convergence failure.
    cfg = sw.SimulationConfig(dag=1, setup=1, seed=19, n_population=4000)
    pop = sw.generate_population(cfg, 0)
    data = tmp_path / "internal.csv"
    export_population(pop, pop.s == 1.0, data)
    marg = tmp_path / "marginals.csv"
    write_lines(marg, ["name,value", "z2,-50", "w,-50", "d,0.5",
                       f"N,{pop.n}"])
    out = tmp_path / "weights.csv"
    result = run_cli("weights", "--method", "cl", "--data", str(data),
                     "--summary", str(marg), "--roles", str(roles_file),
                     "--include-outcome-in-selection", "--out", str(out))
    assert result.returncode == 3
    assert result.stderr.startswith("error: convergence:")
