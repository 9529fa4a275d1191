"""Command-line interface: fit, weights, and simulate.

Exit codes: 0 on success, 2 on validation errors, 3 on convergence
failures.  Every failure prints one machine-parsable line to stderr of the
form ``error: <kind>: <message>``; a loaded summary's warnings and a count
of clamped probabilities are printed as ``warning: <text>`` lines.
"""

import argparse
import dataclasses
import sys
from functools import cached_property

import numpy as np

from .dataio import (
    ResultTable,
    integer_cells,
    load_dataset,
    load_population_summary,
    naming,
    parse_role_map,
    read_key_values,
)
from .errors import NonConvergenceError, SelweightError, ValidationError
from .fitters import probability_vector
from .simulation import (
    DATA_METHODS,
    METHOD_TABLE,
    METHODS,
    SimulationConfig,
    StudyMetric,
    fit_method,
    run_study,
)
from .variance import wald_ci
from .weights import (
    PI_FLOOR,
    augment_weights_with_outcome,
    estimated_weight_set,
    winsorize_weights,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="selweight",
        description="Selection-bias-adjusted logistic regression for "
                    "non-probability samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output file path")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    data_common = argparse.ArgumentParser(add_help=False)
    data_common.add_argument("--data", required=True,
                             help="internal-sample CSV file")
    data_common.add_argument("--roles", required=True,
                             help="key=value file mapping roles to columns")
    data_common.add_argument("--method", required=True,
                             choices=DATA_METHODS)
    data_common.add_argument("--external-data",
                             help="external probability-sample CSV (pl, sr)")
    data_common.add_argument("--summary",
                             help="population summary CSV (ps: joint cells; "
                                  "cl: marginal means)")
    data_common.add_argument("--population-size", type=int,
                             help="target population size (required for ps)")
    data_common.add_argument("--include-outcome-in-selection",
                             action="store_true",
                             help="add the outcome to the selection design")
    data_common.add_argument("--winsorize", nargs=2, type=float,
                             metavar=("Q_LO", "Q_HI"),
                             help="clip weights at these quantile levels")
    data_common.add_argument("--augment-outcome", nargs=2,
                             metavar=("P_POP_COL", "P_INT_COL"),
                             help="columns with population and sample "
                                  "outcome probabilities")

    fit = sub.add_parser("fit", parents=[common, data_common],
                         help="estimate the disease model")
    fit.set_defaults(handler=cli_fit)

    weights = sub.add_parser("weights", parents=[common, data_common],
                             help="estimate selection probabilities only")
    weights.set_defaults(handler=cli_weights)

    simulate = sub.add_parser("simulate", parents=[common],
                              help="run a scenario study")
    simulate.add_argument("--dag", type=int, choices=(1, 2, 3, 4))
    simulate.add_argument("--setup", type=int, choices=(1, 2, 3))
    simulate.add_argument("--replications", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--threads", type=int, default=1,
                          help="processes that run replications, at most "
                               "one per replication; with 1 (the default) "
                               "each replication shares its methods with one "
                               "worker process per further usable CPU and "
                               "method. The output is the same for any value")
    simulate.add_argument("--population-size", type=int, default=None)
    simulate.add_argument("--config",
                          help="key=value file of scenario fields; explicit "
                               "flags override it")
    simulate.add_argument("--method", default=",".join(DATA_METHODS),
                          help="comma-separated subset of "
                               f"{{{','.join(METHODS)}}}")
    simulate.set_defaults(handler=cli_simulate)
    return parser


def _read_config(path):
    """The scenario fields set in the ``key=value`` file ``path``.  Its keys
    are :class:`SimulationConfig`'s fields: a tuple takes comma-separated
    floats, a float one float and an int or optional int one int.  The
    record checks the values, a tuple's length among them."""
    def floats(text):
        return tuple(float(part) for part in text.split(","))

    return read_key_values(path, {
        f.name: {tuple: floats, float: float}.get(f.type, int)
        for f in dataclasses.fields(SimulationConfig)})


class FileSource:
    """Method inputs read from the command's files.

    Each file loads only the columns that the command and method read
    (:meth:`_data_columns` for the data, :attr:`external` for the external
    data), so a bad cell elsewhere is not an error; its header must still
    hold every mapped column.  The external data and the marginal-means
    summary load only when a method asks for them.  For ps the joint-cell
    summary loads first, and its level columns are read columns of the
    data, mapped or not, so one the data lacks is a missing column.
    ``n_population`` is ``--population-size`` when given and the internal
    row count otherwise.
    """

    def __init__(self, args):
        if args.population_size is not None and args.population_size < 1:
            raise ValidationError(
                f"--population-size must be at least 1, got {args.population_size}")
        self.args = args
        roles = parse_role_map(args.roles)
        self.sample = load_dataset(args.data, roles,
                                   columns=self._data_columns(roles))
        self.n_population = args.population_size or self.sample.n_rows
        self.outcome = self.sample.outcome

    def _data_columns(self, roles):
        """The data file's columns that the command and method read."""
        args = self.args
        fit, method = args.command == "fit", args.method
        columns = [roles.outcome, *(args.augment_outcome or ())]
        if method == "ps":
            columns += self.joint_summary.names
        if fit:
            columns += roles.disease_covariates
        if method in ("pl", "sr", "cl"):
            columns += roles.selection_covariates
        if method == "sr" or (fit and method == "pl"):
            columns.append(roles.external_indicator)
        if fit and method == "pl":
            columns.append(roles.external_prob)
        return [name for name in columns if name]

    @cached_property
    def disease_design(self):
        return self.sample.disease_design()

    @cached_property
    def selection_design(self):
        return self.sample.selection_design(
            include_outcome=self.args.include_outcome_in_selection)

    @cached_property
    def external(self):
        if not self.args.external_data:
            raise ValidationError(
                f"--external-data is required for {self.args.method}")
        roles = self.sample.roles
        columns = [roles.outcome, *roles.selection_covariates,
                   roles.external_prob]
        if self.args.method == "sr":
            columns.append(roles.selection_indicator)
        return load_dataset(self.args.external_data, roles,
                            columns=[name for name in columns if name])

    @cached_property
    def external_sample(self):
        x_ext = self.external.selection_design(
            include_outcome=self.args.include_outcome_in_selection)
        return x_ext, self.external.external_probabilities()

    def overlap(self):
        sample, external = self.sample, self.external
        if not sample.roles.external_indicator:
            raise ValidationError(
                "sr needs an external_indicator column on the internal data "
                "to label the overlap"
            )
        if not external.roles.selection_indicator:
            raise ValidationError(
                "sr needs a selection_indicator column on the external data "
                "to label the overlap"
            )
        return (sample.column(sample.roles.external_indicator) == 1.0,
                external.column(external.roles.selection_indicator) == 1.0)

    def internal_overlap(self):
        roles = self.sample.roles
        if not (roles.external_indicator and roles.external_prob):
            raise ValidationError(
                "pl variance needs external_indicator and external_prob "
                "columns on the internal data to locate the overlap"
            )
        overlap_mask = self.sample.column(roles.external_indicator) == 1.0
        overlap_prob = self.sample.column(roles.external_prob)
        probability_vector(overlap_prob, overlap_mask.size, "external_prob",
                           overlap_mask)
        return overlap_mask, overlap_prob

    def _summary(self, kind):
        if not self.args.summary:
            raise ValidationError(f"--summary is required for {self.args.method}")
        summary = load_population_summary(self.args.summary, kind)
        for text in summary.warnings:
            print(f"warning: {text}", file=sys.stderr)
        return summary

    @cached_property
    def joint_summary(self):
        return self._summary("joint_cells")

    def poststratification_inputs(self):
        summary = self.joint_summary
        if self.args.population_size is None:
            raise ValidationError("--population-size is required for ps")
        summary = dataclasses.replace(
            summary, population_size=self.args.population_size)
        levels = np.column_stack([self.sample.column(name)
                                  for name in summary.names])
        with naming(self.args.data):
            return integer_cells(levels, summary.names), summary

    def calibration_summary(self):
        return self._summary("marginal_means")


def _weights(args):
    """Return (source, weight set) for the command's method.

    Augmenting or winsorizing the weights gives a "post-processed" set, which
    ``fit_method`` fits with the fixed-weight sandwich.  Its probabilities
    are clamped as estimated ones are, with one warning line.
    """
    src = FileSource(args)
    weight_set = METHOD_TABLE[args.method](src)
    if not (args.augment_outcome or args.winsorize):
        return src, weight_set
    w = weight_set.weights
    if args.augment_outcome:
        p_pop_col, p_int_col = args.augment_outcome
        w = augment_weights_with_outcome(w, src.outcome,
                                         src.sample.column(p_pop_col),
                                         src.sample.column(p_int_col))
    if args.winsorize:
        w = winsorize_weights(w, *args.winsorize)
    post = estimated_weight_set(1.0 / w, "post-processed")
    if post.clamped:
        print(f"warning: clamped {post.clamped} post-processed selection "
              f"probabilities into [{PI_FLOOR:g}, 1]", file=sys.stderr)
    return src, post


def cli_fit(args):
    src, weight_set = _weights(args)
    model = fit_method(src, weight_set)
    theta = model.coefficients
    ci = wald_ci(theta, model.vcov)
    se = np.sqrt(np.diag(model.vcov))
    table = ResultTable(
        method=[args.method] * len(theta), parameter=list(model.column_names),
        estimate=theta, std_error=se, ci_lower=ci[:, 0], ci_upper=ci[:, 1])
    table.write(args.out, args.format)
    return 0


def cli_weights(args):
    if args.method == "unweighted":
        raise ValidationError("weights requires one of pl, sr, ps, cl")
    pi = _weights(args)[1].pi_hat
    table = ResultTable(row=np.arange(1, len(pi) + 1), pi_hat=pi,
                        weight=1.0 / pi)
    table.write(args.out, args.format)
    return 0


def cli_simulate(args):
    methods = tuple(m.strip() for m in args.method.split(",") if m.strip())
    settings = _read_config(args.config) if args.config else {}
    overrides = {"dag": args.dag, "setup": args.setup,
                 "n_population": args.population_size,
                 "replications": args.replications, "seed": args.seed}
    settings.update({k: v for k, v in overrides.items() if v is not None})
    if "dag" not in settings or "setup" not in settings:
        raise ValidationError(
            "dag and setup are required (flags or --config file)")
    cfg = SimulationConfig(**settings)
    study = run_study(cfg, methods, parallelism=args.threads)
    table = ResultTable(**{
        f.name: [getattr(row, f.name) for row in study.rows]
        for f in dataclasses.fields(StudyMetric)})
    table.write(args.out, args.format)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NonConvergenceError as exc:
        print(f"error: convergence: {exc}", file=sys.stderr)
        return 3
    except (SelweightError, OSError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
