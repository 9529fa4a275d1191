"""Dataset and summary ingestion plus result serialization.

Datasets are comma-delimited text with a header row.  A role map names the
columns playing each part: the binary outcome, the disease-model covariates,
the selection-model covariates, and optional selection/external indicators
with known external design probabilities.  Numbers are written back with 17
significant digits so round-trips preserve every double exactly.
"""

import csv
import json
import warnings
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    DuplicateCellError,
    MissingColumnError,
    MissingNError,
    NonBinaryIndicatorError,
    NonIntegerCellError,
    NonNumericCellError,
    ProbabilitySumOutOfRangeError,
    ValidationError,
)
from .fitters import DesignMatrix
from .weights import PopulationSummary, non_integer

MISSING_TOKENS = {"", "na", "nan", "null", "n/a"}

ROLE_KEYS = (
    "outcome",
    "disease_covariates",
    "selection_covariates",
    "selection_indicator",
    "external_indicator",
    "external_prob",
)


@dataclass
class ColumnRoleMap:
    """Mapping from model roles to dataset column names.

    Covariates shared by the disease and selection models appear in both
    lists; that is how the shared group is declared.
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
        names = [self.outcome]
        names += list(self.disease_covariates)
        names += [c for c in self.selection_covariates if c not in names]
        for extra in (self.selection_indicator, self.external_indicator,
                      self.external_prob):
            if extra:
                names.append(extra)
        return names


def read_key_values(path, parsers):
    """Read a ``key=value`` file, parsing each value with ``parsers[key]``.

    Blank lines and ``#`` comments are skipped; unknown and repeated keys
    and values the parser rejects are errors naming the line.
    """
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(_checked(handle, path), start=1):
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
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return values


def parse_role_map(path):
    """Read a key=value roles file; unknown keys are rejected."""
    values = read_key_values(path, dict.fromkeys(ROLE_KEYS, str))
    lists = {
        k: [part.strip() for part in values[k].split(",") if part.strip()]
        for k in ("disease_covariates", "selection_covariates") if k in values
    }
    return ColumnRoleMap(
        outcome=values.get("outcome", ""),
        disease_covariates=lists.get("disease_covariates", []),
        selection_covariates=lists.get("selection_covariates", []),
        selection_indicator=values.get("selection_indicator") or None,
        external_indicator=values.get("external_indicator") or None,
        external_prob=values.get("external_prob") or None,
    )


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

    def disease_design(self):
        cols = [np.ones(self.n_rows)]
        names = ["intercept"]
        for name in self.roles.disease_covariates:
            cols.append(self.columns[name])
            names.append(name)
        return DesignMatrix(np.column_stack(cols), names)

    def selection_design(self, include_outcome=False):
        cols = [np.ones(self.n_rows)]
        names = ["intercept"]
        for name in self.roles.selection_covariates:
            cols.append(self.columns[name])
            names.append(name)
        if include_outcome:
            cols.append(self.outcome)
            names.append(self.roles.outcome)
        return DesignMatrix(np.column_stack(cols), names)

    def external_probabilities(self):
        if not self.roles.external_prob:
            raise ValidationError("no external_prob column is mapped")
        return self.columns[self.roles.external_prob]


def _parse_cell(text, path, row_number, column):
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        raise NonNumericCellError(
            f"{path}: missing value at row {row_number}, column {column!r}"
        )
    try:
        return float(token)
    except ValueError:
        raise NonNumericCellError(
            f"{path}: non-numeric value {token!r} at row {row_number}, "
            f"column {column!r}"
        ) from None


def integer_cells(values, columns, path, rows=None):
    """The int64 form of a matrix of parsed numbers, one column per name.

    A NaN, an infinity, a fractional value or one outside the int64 range
    raises :class:`NonIntegerCellError` naming ``path``, the row (``rows[i]``
    for matrix row i, or its 1-based position) and the column.
    """
    values = np.asarray(values, dtype=float).reshape(-1, len(columns))
    bad = non_integer(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        row = i + 1 if rows is None else rows[i]
        raise NonIntegerCellError(
            f"{path}: value {float(values[i, j])!r} at row {row}, column "
            f"{columns[j]!r} is not an integer"
        )
    return values.astype(np.int64)


def _checked(items, path):
    """Yield from ``items``, the lines or CSV rows of the file ``path``; a
    malformed CSV row (say, a field over ``csv.field_size_limit()``) or a
    byte that is not UTF-8 raises :class:`ValidationError` naming ``path``."""
    try:
        yield from items
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})"
        ) from None


def _csv_rows(handle, path):
    """The rows of a CSV file, as ``csv.reader`` yields them (see
    :func:`_checked` for the errors)."""
    return _checked(csv.reader(handle), path)


def _data_rows(reader, path, width):
    """Yield (1-based row number, fields) for each non-blank data row;
    blank lines are not counted, so row i is entry i of the loaded arrays."""
    row_number = 0
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        row_number += 1
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {row_number} has {len(row)} fields, "
                f"expected {width}"
            )
        yield row_number, row


def _read_header(reader, path):
    """The stripped header fields of a CSV reader's first row."""
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError(f"{path}: empty file") from None


def read_header(path):
    """The stripped header fields of a delimited file."""
    with open(path, encoding="utf-8", newline="") as handle:
        return _read_header(_csv_rows(handle, path), path)


def load_dataset(path, roles, extra_columns=()):
    """Load and validate a delimited dataset against a role map.

    Binary roles (outcome, indicators) must be coded 0/1; any missing or
    non-numeric cell in a mapped column is an error naming the 1-based data
    row and the column.  ``extra_columns`` pulls in additional numeric
    columns beyond the role map (for example outcome-probability columns
    used by weight augmentation).

    The data rows are parsed in one numpy pass over every column.  When
    that fails and some columns are not wanted (a text column such as a
    subject ID fails it), a second numpy pass converts only the wanted
    ones.  Whenever the numpy passes reject the text or yield a NaN in a
    wanted column, the row loop (:func:`_columns_by_row`) parses the file
    instead; it gives the same numbers, so it alone decides every error and
    its row number.
    """
    wanted = list(roles.mapped_columns())
    wanted += [c for c in extra_columns if c not in wanted]
    with open(path, encoding="utf-8", newline="") as handle:
        header = _read_header(_csv_rows(handle, path), path)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise MissingColumnError(f"{path}: missing columns {missing}")
        positions = [header.index(c) for c in wanted]
        table = _numeric_table(handle, len(header))
        skipped = set(range(len(header))) - set(positions)
        if table is None and skipped:
            # Converters slow the pass, so only a failed pass takes them.
            handle.seek(0)
            _read_header(_csv_rows(handle, path), path)
            table = _numeric_table(handle, len(header), skipped)
    if table is None or np.isnan(table[:, positions]).any():
        columns, n_rows = _columns_by_row(path, wanted)
    else:
        columns = {c: table[:, j].copy() for c, j in zip(wanted, positions)}
        n_rows = len(table)

    binary_roles = [roles.outcome, roles.selection_indicator,
                    roles.external_indicator]
    for name in binary_roles:
        if name and not np.all(np.isin(columns[name], (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(columns[name], (0.0, 1.0)))[0]) + 1
            raise NonBinaryIndicatorError(
                f"{path}: column {name!r} must be coded 0/1 "
                f"(first offending data row {bad})"
            )
    return AnalysisSample(columns=columns, roles=roles, n_rows=n_rows)


def _skipped_cell(text):
    """0 for a cell of a column that is not read.  A quote may change how
    ``csv`` splits the row, so it sends the file to the row loop."""
    if '"' in text:
        raise ValueError("quoted field")
    return 0.0


def _numeric_table(handle, width, skipped=()):
    """The rest of ``handle`` as a float matrix of ``width`` columns, or None.

    The columns at the positions in ``skipped`` are not converted; they
    read as 0 (:func:`_skipped_cell`).  ``np.loadtxt`` converts each field
    with ``PyOS_string_to_double``, the routine ``float`` uses, so an
    accepted matrix holds the row loop's numbers.  It fails on what the row
    loop treats specially (a missing or quoted token, a whitespace-only or
    ``,,,`` row, ``1_0``, a row of the wrong width, a quote in any column)
    and returns NaN for ``nan``; the caller then runs the row loop.  None
    also when there are no rows or not ``width`` columns.
    """
    # Converters, not ``usecols``, skip columns, so that loadtxt still
    # checks that every row has the width of the first.
    converters = dict.fromkeys(skipped, _skipped_cell)
    try:
        with warnings.catch_warnings():
            # A table without rows warns; the row loop reports it instead.
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2,
                               dtype=float, converters=converters)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != width:
        return None
    return table


def _columns_by_row(path, wanted):
    """Parse the ``wanted`` columns of a data file one row at a time.

    Returns the columns as float arrays and the row count, or raises the
    error naming the file, the data row and the column of the first bad
    cell.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = _csv_rows(handle, path)
        header = _read_header(reader, path)
        index = {c: header.index(c) for c in wanted}
        data = {c: [] for c in index}
        n_rows = 0
        for row_number, row in _data_rows(reader, path, len(header)):
            n_rows += 1
            for column, pos in index.items():
                data[column].append(_parse_cell(row[pos], path, row_number,
                                                column))
    if n_rows == 0:
        raise ValidationError(f"{path}: no data rows")
    return {c: np.asarray(v, dtype=float) for c, v in data.items()}, n_rows


def load_population_summary(path, kind):
    """Load a population summary file of the given kind.

    ``joint_cells`` files have one row per cell: the discretized levels under
    their variable-name headers and a final ``probability`` column.  Cell
    probabilities may be renormalized when their total falls within one part
    in a thousand of 1; larger deviations are rejected.  ``marginal_means``
    files are two columns (name, value) and must include an ``N`` row.
    """
    if kind == "joint_cells":
        return _load_joint_cells(path)
    if kind == "marginal_means":
        return _load_marginal_means(path)
    raise ValidationError(f"unknown summary kind {kind!r}")


def _load_joint_cells(path):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = _csv_rows(handle, path)
        header = _read_header(reader, path)
        if len(header) < 2 or header[-1] != "probability":
            raise ValidationError(
                f"{path}: joint summary needs level columns plus a final "
                "'probability' column"
            )
        level_names = header[:-1]
        levels, probabilities = [], []
        for row_number, row in _data_rows(reader, path, len(header)):
            levels.append([_parse_cell(cell, path, row_number, name)
                           for cell, name in zip(row[:-1], level_names)])
            probabilities.append(_parse_cell(row[-1], path, row_number,
                                             "probability"))
    if not levels:
        raise ValidationError(f"{path}: no cells found")
    levels = integer_cells(levels, level_names, path)
    total = sum(probabilities)
    warnings = []
    if abs(total - 1.0) > 1e-9:
        if not (0.999 <= total <= 1.001):
            raise ProbabilitySumOutOfRangeError(
                f"{path}: cell probabilities sum to {total:.6f}, outside [0.999, 1.001]"
            )
        probabilities = [p / total for p in probabilities]
        warnings.append(
            f"cell probabilities summed to {total:.6f}; renormalized to 1"
        )
    try:
        summary = PopulationSummary("joint_cells", levels=levels,
                                    probabilities=np.array(probabilities),
                                    names=level_names)
    except DuplicateCellError as exc:
        raise DuplicateCellError(f"{path}: {exc}") from None
    summary.warnings.extend(warnings)
    return summary


def _load_marginal_means(path):
    names, means = [], []
    population_size = None
    with open(path, encoding="utf-8", newline="") as handle:
        reader = _csv_rows(handle, path)
        header = _read_header(reader, path)
        if [h.lower() for h in header] != ["name", "value"]:
            raise ValidationError(
                f"{path}: marginal summary must have header 'name,value'"
            )
        seen = {}
        for row_number, row in _data_rows(reader, path, 2):
            name = row[0].strip()
            if name in seen:
                raise ValidationError(
                    f"{path}: name {name!r} at row {row_number} repeats "
                    f"row {seen[name]}"
                )
            seen[name] = row_number
            value = _parse_cell(row[1], path, row_number, "value")
            if name == "N":
                population_size = int(integer_cells(
                    [value], ["value"], path, [row_number])[0, 0])
            else:
                names.append(name)
                means.append(value)
    if population_size is None:
        raise MissingNError(f"{path}: no 'N' row with the population size")
    if not names:
        raise ValidationError(f"{path}: no marginal means found")
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

    Fill a table row by row with :meth:`append`, or make it whole from
    named columns with :meth:`from_columns`; both write the same bytes for
    the same values.
    """

    def __init__(self, column_names):
        self.column_names = list(column_names)
        self.columns = {c: [] for c in self.column_names}

    @classmethod
    def from_columns(cls, **columns):
        """A table of the given columns, in argument order, one entry per row.

        As in :meth:`append`, every row's confidence interval must bracket
        its estimate, and every column needs the same length.
        """
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"result columns differ in length: {lengths}")
        _check_intervals(columns)
        table = cls(columns)
        table.columns = dict(columns)
        return table

    def append(self, **values):
        """Add one row; a column it does not name is written empty."""
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise ValidationError(f"unknown result columns {sorted(unknown)}")
        _check_intervals({name: [value] for name, value in values.items()})
        for name, column in self.columns.items():
            column.append(values.get(name, ""))

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
        # text as the CSV writer; a non-finite number is null.
        fields = []
        for name, (spec, cells) in zip(self.column_names,
                                       self._cells(json.dumps)):
            texts = list(map(spec.__mod__, cells))
            fields.append(map((json.dumps(name) + ": ").__add__,
                              map(_JSON_NULLS.get, texts, texts)))
        rows = ["  {" + ", ".join(cells) + "}" for cells in zip(*fields)]
        lines = ["[", *(row + "," for row in rows[:-1]), *rows[-1:], "]"]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def write(self, path, fmt):
        if fmt == "csv":
            self.write_csv(path)
        elif fmt == "json":
            self.write_json(path)
        else:
            raise ValidationError(f"unknown output format {fmt!r}")
