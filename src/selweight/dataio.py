"""Dataset and summary ingestion plus result serialization.

Datasets are comma-delimited text with a header row.  A role map names the
columns playing each part: the binary outcome, the disease-model covariates,
the selection-model covariates, and optional selection/external indicators
with known external design probabilities.  Every error met while reading a
file, the checks of the records built from it included, names the file
(:func:`naming`), and a cell read as a number must hold a finite one.
Numbers are written back with 17 significant digits so round-trips preserve
every double exactly.
"""

import csv
import dataclasses
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    MissingColumnError,
    MissingNError,
    NonBinaryIndicatorError,
    NonIntegerCellError,
    NonNumericCellError,
    ProbabilitySumOutOfRangeError,
    ValidationError,
)
from .fitters import DesignMatrix, build_design
from .weights import PopulationSummary

MISSING_TOKENS = {"", "na", "nan", "null", "n/a"}


@dataclass(frozen=True)
class ColumnRoleMap:
    """Mapping from model roles to dataset column names.

    Covariates shared by the disease and selection models appear in both
    lists; that is how the shared group is declared.  The fields cannot be
    assigned, so every map has passed the role checks; a changed copy comes
    from ``dataclasses.replace``, which checks it again.
    """

    outcome: str
    disease_covariates: list
    selection_covariates: list
    selection_indicator: Optional[str] = None
    external_indicator: Optional[str] = None
    external_prob: Optional[str] = None

    def __post_init__(self):
        if not self.outcome:
            raise ValidationError("an outcome column is required")
        if not self.disease_covariates:
            raise ValidationError("at least one disease covariate is required")
        for label, names in (("disease_covariates", self.disease_covariates),
                             ("selection_covariates", self.selection_covariates)):
            if len(set(names)) != len(names):
                raise ValidationError(f"duplicate names in {label}")
        specials = [self.outcome, self.selection_indicator,
                    self.external_indicator, self.external_prob]
        specials = [s for s in specials if s]
        if len(set(specials)) != len(specials):
            raise ValidationError("indicator/outcome roles must name distinct columns")
        covariates = set(self.disease_covariates) | set(self.selection_covariates)
        clash = covariates & set(specials)
        if clash:
            raise ValidationError(f"columns {sorted(clash)} mapped to multiple roles")

    def mapped_columns(self):
        """Every mapped column once, in field order."""
        names = chain.from_iterable(
            getattr(self, f.name) if f.type is list else [getattr(self, f.name)]
            for f in dataclasses.fields(self))
        return list(dict.fromkeys(name for name in names if name))


def read_key_values(path, parsers):
    """Read a ``key=value`` file, parsing each value with ``parsers[key]``.

    Blank lines and ``#`` comments are skipped; unknown and repeated keys
    and values the parser rejects are errors naming the line.
    """
    values = {}
    with naming(path), _open_text(path) as handle:
        lines = handle.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: cannot parse value for {key!r}"
            ) from None
    return values


def parse_role_map(path):
    """Read a key=value roles file whose keys are :class:`ColumnRoleMap`'s
    fields.  A list field takes comma-separated names and any other field
    one name; a key that is absent or empty is unset, and an unknown key is
    an error."""
    def names(text):
        return [name for name in map(str.strip, text.split(",")) if name]

    parsers = {f.name: names if f.type is list else (lambda text: text or None)
               for f in dataclasses.fields(ColumnRoleMap)}
    values = {key: parse("") for key, parse in parsers.items()}
    values.update(read_key_values(path, parsers))
    with naming(path):
        return ColumnRoleMap(**values)


@dataclass
class AnalysisSample:
    """Validated rectangular dataset with columns resolved by role."""

    columns: dict
    roles: ColumnRoleMap
    n_rows: int

    def column(self, name):
        return self.columns[name]

    @property
    def outcome(self):
        return self.columns[self.roles.outcome]

    def _design(self, names):
        if not names:
            # An intercept-only model: a roles file without selection_covariates.
            return DesignMatrix(np.ones((self.n_rows, 1)), ["intercept"])
        return build_design([self.columns[c] for c in names], names)

    def disease_design(self):
        return self._design(self.roles.disease_covariates)

    def selection_design(self, include_outcome=False):
        outcome = [self.roles.outcome] if include_outcome else []
        return self._design([*self.roles.selection_covariates, *outcome])

    def external_probabilities(self):
        if not self.roles.external_prob:
            raise ValidationError("no external_prob column is mapped")
        return self.columns[self.roles.external_prob]


def _parse_cell(text, row_number, column):
    """The number in a cell; a missing, non-numeric or non-finite one raises
    :class:`NonNumericCellError` naming the row and the column."""
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        raise NonNumericCellError(
            f"missing value at row {row_number}, column {column!r}"
        )
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCellError(
            f"non-numeric value {token!r} at row {row_number}, "
            f"column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise NonNumericCellError(
            f"non-finite value {token!r} at row {row_number}, "
            f"column {column!r}"
        )
    return value


# Integer cells are stored as int64, which holds magnitudes below 2**63.
INT64_LIMIT = 2.0**63


def integer_cells(values, columns, rows=None):
    """The int64 form of a matrix of parsed numbers, one column per name.

    A NaN, an infinity, a fractional value or one outside the int64 range
    raises :class:`NonIntegerCellError` naming the row (``rows[i]`` for
    matrix row i, or its 1-based position) and the column.
    """
    values = np.asarray(values, dtype=float).reshape(-1, len(columns))
    bad = ~(np.abs(values) < INT64_LIMIT) | (values != np.floor(values))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        row = i + 1 if rows is None else rows[i]
        raise NonIntegerCellError(
            f"value {float(values[i, j])!r} at row {row}, column "
            f"{columns[j]!r} is not an integer"
        )
    return values.astype(np.int64)


@contextmanager
def naming(path):
    """Name the file ``path`` in the errors met while reading it: a
    :class:`ValidationError` raised inside gets the prefix ``"{path}: "``
    and keeps its type, and a malformed CSV row (say, a field over
    ``csv.field_size_limit()``) or a byte that is not UTF-8 becomes one."""
    try:
        yield
    except (ValidationError, csv.Error, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            byte = exc.object[exc.start]
            exc = ValidationError(
                f"not UTF-8 text (byte 0x{byte:02x}: {exc.reason})")
        kind = type(exc) if isinstance(exc, ValidationError) else ValidationError
        raise kind(f"{path}: {exc}") from None


def _open_text(path):
    """``path`` opened to read as UTF-8 text.  A leading byte-order mark,
    which Excel's "CSV UTF-8" export writes, is not part of the text."""
    return open(path, encoding="utf-8-sig", newline="")


def _data_rows(reader, width):
    """Yield (1-based row number, fields) for each non-blank data row;
    blank lines are not counted, so row i is entry i of the loaded arrays."""
    row_number = 0
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        row_number += 1
        if len(row) != width:
            raise ValidationError(
                f"row {row_number} has {len(row)} fields, expected {width}"
            )
        yield row_number, row


def _read_header(reader):
    """The stripped header fields of a CSV reader's first row."""
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError("empty file") from None


def _check_unique(header, names):
    """Raise :class:`ValidationError` if a name in ``names`` heads two columns."""
    for name in names:
        if header.count(name) > 1:
            raise ValidationError(f"header repeats column {name!r}")


def load_dataset(path, roles, columns=None):
    """Load and validate a delimited dataset against a role map.

    ``columns`` names the columns to read; None reads every mapped column.
    It may name columns the role map does not (for example the
    outcome-probability columns of weight augmentation, or a joint
    summary's level columns).  The header must hold every mapped and every
    named column, else :class:`MissingColumnError` lists the missing ones;
    it must not name a read column twice.  Only the read columns are parsed
    and checked: any missing, non-numeric or non-finite cell in one is an
    error naming the file, the 1-based data row and the column, and a read
    binary role (outcome, indicators) must be coded 0/1.  The sample holds
    the read columns alone.

    The data rows are parsed in one typed numpy pass that converts only the
    read columns (:func:`_numeric_table`).  Whenever the file has a line
    longer than ``csv.field_size_limit()``, or that pass rejects the text,
    meets a field that starts with a quote or yields a NaN or an infinity
    in a read column, the row loop (:func:`_columns_by_row`) parses the
    file instead; it gives the same numbers, so it alone decides every error
    and its row number.
    """
    mapped = roles.mapped_columns()
    named = list(dict.fromkeys([*mapped, *(columns or ())]))
    wanted = named if columns is None else [c for c in named if c in columns]
    with naming(path):
        with _open_text(path) as handle:
            header = _read_header(csv.reader(handle))
            missing = [c for c in named if c not in header]
            if missing:
                raise MissingColumnError(f"missing columns {missing}")
            _check_unique(header, wanted)
            fields = [f"f{header.index(c)}" for c in wanted]
            table = (None if _has_long_line(path, csv.field_size_limit())
                     else _numeric_table(handle, len(header), fields))
        if table is None or not all(np.isfinite(table[f]).all()
                                    for f in fields):
            data, n_rows = _columns_by_row(path, wanted)
        else:
            data = {c: table[f].copy() for c, f in zip(wanted, fields)}
            n_rows = len(table)

        binary_roles = [roles.outcome, roles.selection_indicator,
                        roles.external_indicator]
        for name in binary_roles:
            if name in data and not np.all(np.isin(data[name], (0.0, 1.0))):
                bad = int(np.flatnonzero(~np.isin(data[name], (0.0, 1.0)))[0]) + 1
                raise NonBinaryIndicatorError(
                    f"column {name!r} must be coded 0/1 "
                    f"(first offending data row {bad})"
                )
        return AnalysisSample(columns=data, roles=roles, n_rows=n_rows)


def _has_long_line(path, limit):
    """Whether a line of the file ``path`` holds more than ``limit`` bytes.

    An unquoted field over ``csv``'s limit of ``limit`` characters lies on
    such a line (a quoted one sends the file to the row loop anyway), so
    the numpy pass, which has no field limit, only runs on files without
    one.  Each ``rfind`` skips up to ``limit`` bytes, so a file costs about
    one scan of its bytes.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    start = 0
    while len(data) - start > limit:
        end = data.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _numeric_table(handle, width, wanted):
    """The rest of ``handle`` as a record array, or None.

    Field ``f{j}`` holds column j of each row: a float64 when ``wanted``
    names the field, and the first character of the text otherwise, so
    only the wanted columns are converted.  ``np.loadtxt`` converts them
    with ``PyOS_string_to_double``, the routine ``float`` uses, so accepted
    fields hold the row loop's numbers.  It fails on what the row loop
    treats specially (a missing token or ``1_0`` in a wanted column, a
    whitespace-only or ``,,,`` row, a row of other than ``width`` fields)
    and returns NaN for ``nan``; the caller then runs the row loop.
    loadtxt does not read quotes, so where a field starts with ``"`` it may
    split the row otherwise than ``csv``.  Such a field fails the
    conversion in a wanted column and shows its quote in any other; either
    way, and when there are no rows, the result is None.
    """
    dtype = np.dtype([(f"f{j}", "f8" if f"f{j}" in wanted else "U1")
                      for j in range(width)])
    try:
        with warnings.catch_warnings():
            # A table without rows warns; the row loop reports it instead.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=1,
                               dtype=dtype)
    except ValueError:
        return None
    if len(table) == 0 or any((table[f] == '"').any()
                              for f in dtype.names if f not in wanted):
        return None
    return table


def _columns_by_row(path, wanted):
    """Parse the ``wanted`` columns of a data file one row at a time.

    Returns the columns as float arrays and the row count, or raises the
    error naming the data row and the column of the first bad cell.
    """
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        index = {c: header.index(c) for c in wanted}
        data = {c: [] for c in index}
        n_rows = 0
        for row_number, row in _data_rows(reader, len(header)):
            n_rows += 1
            for column, pos in index.items():
                data[column].append(_parse_cell(row[pos], row_number, column))
    if n_rows == 0:
        raise ValidationError("no data rows")
    return {c: np.asarray(v, dtype=float) for c, v in data.items()}, n_rows


def load_population_summary(path, kind):
    """Load a population summary file of the given kind.

    ``joint_cells`` files have one row per cell: the discretized levels under
    their variable-name headers and a final ``probability`` column.  Cell
    probabilities may be renormalized when their total falls within one part
    in a thousand of 1; larger deviations are rejected.  ``marginal_means``
    files are two columns (name, value) and must include an ``N`` row.
    """
    loaders = {"joint_cells": _load_joint_cells,
               "marginal_means": _load_marginal_means}
    if kind not in loaders:
        raise ValidationError(f"unknown summary kind {kind!r}")
    with naming(path):
        return loaders[kind](path)


def _load_joint_cells(path):
    """The joint-cells summary in ``path`` (see :func:`load_population_summary`).

    The cells go through the data files' row loop, :func:`_columns_by_row`,
    so a bad cell is reported as a data file's is; the probabilities are
    summed in file order."""
    with _open_text(path) as handle:
        header = _read_header(csv.reader(handle))
    if len(header) < 2 or header[-1] != "probability":
        raise ValidationError(
            "joint summary needs level columns plus a final 'probability' "
            "column"
        )
    level_names = header[:-1]
    _check_unique(header, level_names)
    cells, _ = _columns_by_row(path, header)
    probabilities = cells.pop("probability")
    levels = integer_cells(np.column_stack(list(cells.values())), level_names)
    total = sum(probabilities.tolist())
    warnings = []
    if abs(total - 1.0) > 1e-9:
        if not (0.999 <= total <= 1.001):
            raise ProbabilitySumOutOfRangeError(
                f"cell probabilities sum to {total:.6f}, outside [0.999, 1.001]"
            )
        probabilities = probabilities / total
        warnings.append(
            f"cell probabilities summed to {total:.6f}; renormalized to 1"
        )
    return PopulationSummary("joint_cells", levels=levels,
                             probabilities=probabilities, names=level_names,
                             warnings=warnings)


def _load_marginal_means(path):
    names, means = [], []
    population_size = None
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        header = _read_header(reader)
        if [h.lower() for h in header] != ["name", "value"]:
            raise ValidationError(
                "marginal summary must have header 'name,value'"
            )
        seen = {}
        for row_number, row in _data_rows(reader, 2):
            name = row[0].strip()
            if name in seen:
                raise ValidationError(
                    f"name {name!r} at row {row_number} repeats "
                    f"row {seen[name]}"
                )
            seen[name] = row_number
            value = _parse_cell(row[1], row_number, "value")
            if name == "N":
                population_size = int(integer_cells(
                    [value], ["value"], [row_number])[0, 0])
            else:
                names.append(name)
                means.append(value)
    if population_size is None:
        raise MissingNError("no 'N' row with the population size")
    if not names:
        raise ValidationError("no marginal means found")
    return PopulationSummary("marginal_means", means=np.asarray(means),
                             names=names, population_size=population_size)


def format_number(value):
    """Serialize a number with 17 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# The texts of non-finite numbers, written as null in JSON.  A text cell's
# JSON text starts with a quote, so it is never one of them.
_JSON_NULLS = dict.fromkeys(("inf", "-inf", "nan"), "null")


def _column_cells(values, text_cell):
    """The printf conversion and the cells of one result column.

    An integer or float array keeps its numbers for the conversion ``%d``
    or ``%.17g``, which gives the bytes of :func:`format_number`.  Any other
    column is formatted here, for ``%s``: a number by :func:`format_number`
    and any other value as ``text_cell`` of its ``str``.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return ("%.17g" if values.dtype.kind == "f" else "%d"), values.tolist()
    return "%s", [format_number(value)
                  if isinstance(value, (int, float, np.integer, np.floating))
                  else text_cell(str(value)) for value in values]


def _json_column(spec, cells):
    """A column's conversion and cells (see :func:`_column_cells`) as JSON
    writes them, where a non-finite number is null.

    A float column that holds a non-finite number and a column of texts go
    out as texts, each with its ``null`` in place.
    """
    if spec == "%d" or (spec == "%.17g" and all(map(math.isfinite, cells))):
        return spec, cells
    return "%s", [_JSON_NULLS.get(text, text) for text in map(spec.__mod__, cells)]


def _csv_quoter(width):
    """A function that gives a text as ``csv.writer`` writes it in a row of
    ``width`` fields.

    The other fields of that row are empty, so the csv module alone decides
    the quoting, including a lone empty field's ``""``.
    """
    # ``writerow`` returns what the file's ``write`` returns: the line.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    blanks = ("",) * (width - 1)
    return lambda text: line((text, *blanks))[:-width]


def _check_intervals(columns):
    """Raise unless every row's ``ci_lower`` <= ``estimate`` <= ``ci_upper``,
    when the columns include all three."""
    if {"ci_lower", "estimate", "ci_upper"} <= columns.keys():
        lower, estimate, upper = (np.asarray(columns[c], dtype=float)
                                  for c in ("ci_lower", "estimate", "ci_upper"))
        if not np.all((lower <= estimate) & (estimate <= upper)):
            raise ValidationError(
                "confidence interval does not bracket the estimate"
            )


class ResultTable:
    """Result columns in a fixed order, writable as CSV or JSON.

    ``ResultTable(**columns)`` holds the named columns in argument order,
    each an array or a list of cells with one entry per row.  Every column
    needs the same length, and every row's confidence interval must
    bracket its estimate.
    """

    def __init__(self, /, **columns):
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"result columns differ in length: {lengths}")
        _check_intervals(columns)
        self.columns = columns
        self.column_names = list(columns)

    def _cells(self, text_cell):
        """(conversion, cells) of each column, in column order (see
        :func:`_column_cells`)."""
        return [_column_cells(self.columns[c], text_cell)
                for c in self.column_names]

    def write_csv(self, path):
        # Only a text cell can need quoting, so the numbers go out as the
        # conversions make them: one row template, applied to the whole
        # table in one ``%``.
        quote = _csv_quoter(len(self.column_names))
        columns = self._cells(quote)
        rows = len(columns[0][1]) if columns else 0
        template = ",".join(spec for spec, _ in columns) + "\n"
        values = chain.from_iterable(zip(*(cells for _, cells in columns)))
        table = template * rows % tuple(values)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(map(quote, self.column_names)) + "\n" + table)

    def write_json(self, path):
        # Hand-rolled so numeric fields carry the same 17-significant-digit
        # text as the CSV writer, with one row template applied to the whole
        # table in one ``%`` as there; rows are separated by ",\n".
        columns = [_json_column(*cells) for cells in self._cells(json.dumps)]
        rows = len(columns[0][1]) if columns else 0
        template = "  {" + ", ".join(
            json.dumps(name).replace("%", "%%") + ": " + spec
            for name, (spec, _) in zip(self.column_names, columns)) + "},\n"
        values = chain.from_iterable(zip(*(cells for _, cells in columns)))
        table = template * rows % tuple(values)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("[\n" + table[:-2] + "\n]\n" if rows else "[\n]\n")

    def write(self, path, fmt):
        if fmt == "csv":
            self.write_csv(path)
        elif fmt == "json":
            self.write_json(path)
        else:
            raise ValidationError(f"unknown output format {fmt!r}")
