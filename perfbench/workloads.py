"""The three benchmark workloads: inputs made from a seed, one operation, a digest.

A workload is an endless, fixed sequence of operations. ``study-*`` runs one
Monte Carlo replication per operation (replication index 0, 1, 2, ...);
``cli-files`` runs one ``selweight`` command per operation, round-robin over
a fixed mix of seven commands on CSV files generated from the seed. Every
operation returns an :class:`Outcome` with the time the program took and the
digest of its output, so a run can be checked against golden digests.
"""

import hashlib
import io
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The program is always the one in this checkout, never an installed copy.
sys.path.insert(0, str(SRC))
import selweight  # noqa: E402
from selweight import cli, simulation  # noqa: E402

if Path(selweight.__file__).resolve().parent != SRC / "selweight":
    raise ImportError(f"selweight imported from {selweight.__file__}, not {SRC}")

# Seed of the fixed reference operation that every run and every set-up probe
# checks against its golden digest, whatever seed the run itself uses.
REFERENCE_SEED = 7


@dataclass
class Outcome:
    """What one operation produced, reduced to what the benchmark checks."""

    seconds: float       # time inside the program call only
    digest: str          # golden digest of the output
    exact: bytes         # every output byte the replay check compares
    attempted: int       # fits (study) or commands (cli) attempted
    rows: int            # input rows the operation handled
    failures: Counter = field(default_factory=Counter)


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _span(tracer, name, index):
    return tracer.span(name, index) if tracer is not None else nullcontext()


class Study:
    """``run_replication`` at a pinned scenario, one replication per operation."""

    round_size = 1
    count_block = 4

    def __init__(self, dag, setup, methods):
        self.dag, self.setup, self.methods = dag, setup, tuple(methods)

    def prepare(self, seed, workdir):
        self.cfg = simulation.SimulationConfig(dag=self.dag, setup=self.setup,
                                               seed=seed)

    def prepare_reference(self, workdir, write=True):
        self.reference_cfg = simulation.SimulationConfig(
            dag=self.dag, setup=self.setup, seed=REFERENCE_SEED)

    def run(self, index, tracer=None):
        return self._replicate(self.cfg, index, tracer)

    def run_reference(self):
        return self._replicate(self.reference_cfg, 0, None)

    def _replicate(self, cfg, index, tracer):
        n_methods = len(self.methods)
        start = time.perf_counter()
        try:
            with _span(tracer, "simulation.run_replication", index):
                results = simulation.run_replication(cfg, index, self.methods)
        except Exception as exc:  # a defect, not a per-method failure
            seconds = time.perf_counter() - start
            text = repr(exc).encode()
            return Outcome(seconds, _sha(text), text, n_methods,
                           cfg.population_size,
                           Counter({f"uncaught {type(exc).__name__}": n_methods}))
        seconds = time.perf_counter() - start

        failures = Counter()
        golden, exact = [], []
        for method in self.methods:
            res = results[method]
            if res.failed:
                failures[res.error.split(":", 1)[0]] += 1
                text = f"{method}:{res.error}".encode()
                golden.append(text)
                exact.append(text)
                continue
            ws = res.weight_set
            alpha = np.empty(0)
            clamps = 0
            if ws is not None:
                if ws.alpha_hat is not None:
                    alpha = ws.alpha_hat
                clamps = (ws.diagnostics.get("clamped_low", 0)
                          + ws.diagnostics.get("clamped_high", 0))
            theta = np.asarray(res.model.coefficients, dtype=float)
            vcov = np.asarray(res.model.vcov, dtype=float)
            tail = [np.asarray(alpha, dtype=float).tobytes(),
                    np.int64(clamps).tobytes()]
            golden += [method.encode(), theta.tobytes(),
                       np.diag(vcov).tobytes(), *tail]
            exact += [method.encode(), theta.tobytes(), vcov.tobytes(), *tail]
        return Outcome(seconds, _sha(*golden), b"".join(exact), n_methods,
                       cfg.population_size, failures)


def _cli_config(seed=0):
    return simulation.SimulationConfig(dag=3, setup=1, seed=seed)


def _csv(path, header, columns):
    """Write columns as CSV; floats keep every digit (shortest repr)."""
    lists = [c.tolist() for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in zip(*lists))
    return len(lists[0])


def write_cli_inputs(seed, directory):
    """Write one dag 3 / setup 1 population as CLI inputs; return row counts."""
    directory.mkdir(parents=True, exist_ok=True)
    pop = simulation.generate_population(_cli_config(seed), 0)
    d = pop.d.astype(int)
    z2_bin = selweight.coarsen(pop.z2)
    w_bin = selweight.coarsen(pop.w)
    base = ["d", "z1", "z2", "w", "s", "s_ext", "pi_ext"]
    cols = [d, pop.z1, pop.z2, pop.w, pop.s.astype(int),
            pop.s_ext.astype(int), pop.pi_ext]
    internal, external = pop.s == 1.0, pop.s_ext == 1.0
    rows = {
        "internal.csv": _csv(directory / "internal.csv",
                             base + ["z2_bin", "w_bin"],
                             [c[internal] for c in cols + [z2_bin, w_bin]]),
        "external.csv": _csv(directory / "external.csv", base,
                             [c[external] for c in cols]),
    }
    cells, counts = np.unique(np.column_stack([d, z2_bin, w_bin]), axis=0,
                              return_counts=True)
    _csv(directory / "cells.csv", ["d", "z2_bin", "w_bin", "probability"],
         [cells[:, 0], cells[:, 1], cells[:, 2], counts / pop.n])
    with open(directory / "means.csv", "w", encoding="utf-8") as handle:
        handle.write(f"name,value\nN,{pop.n}\n")
        for name, values in (("z2", pop.z2), ("w", pop.w), ("d", pop.d)):
            handle.write(f"{name},{float(values.mean())!r}\n")
    (directory / "roles.cfg").write_text(
        "outcome=d\ndisease_covariates=z1,z2\nselection_covariates=z2,w\n"
        "selection_indicator=s\nexternal_indicator=s_ext\nexternal_prob=pi_ext\n",
        encoding="utf-8")
    # The CLI's ps path loads only role-mapped columns, so the summary's level
    # columns need a roles file of their own.
    (directory / "roles_ps.cfg").write_text(
        "outcome=d\ndisease_covariates=z1,z2\nselection_covariates=z2_bin,w_bin\n",
        encoding="utf-8")
    return rows


def cli_commands(directory, rows=None):
    """The fixed command mix as (argv, output path, data rows parsed).

    ``rows`` holds the counts :func:`write_cli_inputs` returned; without it
    the commands report zero rows.
    """
    d = str(directory)
    internal, external = f"{d}/internal.csv", f"{d}/external.csv"
    n_int, n_ext = (rows["internal.csv"], rows["external.csv"]) if rows else (0, 0)
    n_population = str(_cli_config().population_size)
    individual = ["--data", internal, "--external-data", external,
                  "--roles", f"{d}/roles.cfg", "--include-outcome-in-selection"]
    ps = ["--data", internal, "--roles", f"{d}/roles_ps.cfg",
          "--summary", f"{d}/cells.csv", "--population-size", n_population]
    cl = ["--data", internal, "--roles", f"{d}/roles.cfg",
          "--summary", f"{d}/means.csv", "--include-outcome-in-selection"]
    mix = [
        ("fit", "pl", individual, n_int + n_ext),
        ("fit", "sr", individual, n_int + n_ext),
        ("fit", "ps", ps, n_int),
        ("fit", "cl", cl, n_int),
        ("weights", "cl", cl + ["--winsorize", "0.01", "0.99"], n_int),
        ("weights", "sr", individual, n_int + n_ext),
        ("weights", "ps", ps, n_int),
    ]
    commands = []
    for k, (command, method, args, n_rows) in enumerate(mix):
        out = f"{d}/out{k}_{command}_{method}.csv"
        commands.append(([command, "--method", method, *args, "--out", out],
                         out, n_rows))
    return commands


class CliFiles:
    """``selweight.cli.main`` in-process, round-robin over the command mix."""

    round_size = 7
    count_block = 7

    def prepare(self, seed, workdir):
        rows = write_cli_inputs(seed, workdir / "inputs")
        self.commands = cli_commands(workdir / "inputs", rows)

    def prepare_reference(self, workdir, write=True):
        # A set-up probe reuses the files its parent wrote (write=False), so
        # making inputs stays out of the set-up time.
        directory = workdir / "reference"
        rows = write_cli_inputs(REFERENCE_SEED, directory) if write else None
        self.reference_command = cli_commands(directory, rows)[0]

    def run(self, index, tracer=None):
        return self._command(*self.commands[index % len(self.commands)],
                             index, tracer)

    def run_reference(self):
        return self._command(*self.reference_command, 0, None)

    def _command(self, argv, out, n_rows, index, tracer):
        if os.path.exists(out):
            os.remove(out)
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(stderr), _span(tracer, "cli.main", index):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # a defect: main let an exception escape
            code = f"uncaught {type(exc).__name__}"
        seconds = time.perf_counter() - start
        if code != 0:
            text = f"exit {code}: {stderr.getvalue().strip()}".encode()
            return Outcome(seconds, _sha(text), text, 1, n_rows,
                           Counter({f"exit {code}": 1}))
        with open(out, "rb") as handle:
            data = handle.read()
        return Outcome(seconds, _sha(data), data, 1, n_rows)


WORKLOADS = {
    # ROADMAP's pinned scenario; PS and SR are about 3/4 of each replication.
    "study-full": lambda: Study(3, 1, ("unweighted", "pl", "sr", "ps", "cl")),
    # N = 125,000 and no PS or SR: population generation, Newton fits and
    # the two-step sandwiches.
    "study-model": lambda: Study(2, 2, ("unweighted", "pl", "cl", "oracle_weights")),
    # The only workload that parses and writes files.
    "cli-files": CliFiles,
}


def block_digest(outcomes):
    """Digest of a run's first ``count_block`` operations."""
    return _sha(*(o.digest.encode() for o in outcomes))
