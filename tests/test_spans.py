"""The benchmark's tracer still finds every function it traces.

``perfbench/spans.py`` records a span by replacing each ``TRACED`` function
in every ``CALLERS`` module that refers to it by name.  A function that was
renamed or moved, or that no caller imports under that name any more, is
silently left untraced, and its layer's metrics vanish from the benchmark
without an error.  This test loads ``spans.py`` as it is and checks both
conditions for every traced function.  The counts a span takes from its
call's arguments (the path a load read, the file a table wrote) are checked
on one traced command, so a signature change cannot zero them silently.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import selweight as sw
from selweight import cli
from selweight.dataio import format_number

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, name, _ in SPANS_MODULE.TRACED])
def test_every_traced_function_exists_and_has_a_caller(module, name):
    original = getattr(importlib.import_module(f"selweight.{module}"), name,
                       None)
    assert original is not None, f"selweight.{module}.{name} does not exist"
    callers = [caller for caller in SPANS_MODULE.CALLERS
               if getattr(importlib.import_module(f"selweight.{caller}"),
                          name, None) is original]
    assert callers, f"no module of {SPANS_MODULE.CALLERS} refers to {name}"


@pytest.mark.parametrize("method", ["pl", "ps"])
def test_a_traced_command_counts_the_rows_and_bytes_it_moves(tmp_path, method):
    pop = sw.generate_population(
        sw.SimulationConfig(dag=3, setup=1, seed=11, n_population=6000), 0)
    w_bin = sw.coarsen(pop.w)
    fields = {"d": pop.d, "z1": pop.z1, "z2": pop.z2, "w": pop.w, "s": pop.s,
              "s_ext": pop.s_ext, "pi_ext": pop.pi_ext, "w_bin": w_bin}
    rows = {}
    for name, mask in (("internal", pop.s == 1.0), ("external", pop.s_ext == 1.0)):
        lines = [",".join(fields)] + [
            ",".join(format_number(v[i]) for v in fields.values())
            for i in np.flatnonzero(mask)]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
        rows[name] = int(mask.sum())
    cells, counts = np.unique(np.column_stack([pop.d, w_bin]).astype(int),
                              axis=0, return_counts=True)
    (tmp_path / "cells.csv").write_text("\n".join(["d,w_bin,probability"] + [
        f"{d},{level},{format_number(count / pop.n)}"
        for (d, level), count in zip(cells.tolist(), counts)]) + "\n",
        encoding="utf-8")
    # The roles map no level column: the ps path reads w_bin all the same.
    (tmp_path / "roles.cfg").write_text(
        "outcome=d\ndisease_covariates=z1,z2\nselection_covariates=z2,w\n"
        "selection_indicator=s\nexternal_indicator=s_ext\n"
        "external_prob=pi_ext\n", encoding="utf-8")
    if method == "pl":
        inputs = ["--external-data", str(tmp_path / "external.csv"),
                  "--include-outcome-in-selection"]
        loaded, summaries = ("internal", "external"), []
    else:
        inputs = ["--summary", str(tmp_path / "cells.csv"),
                  "--population-size", str(pop.n)]
        loaded, summaries = ("internal",), [{}]
    out = tmp_path / "out.csv"
    tracer = SPANS_MODULE.Tracer()
    with tracer.installed(), tracer.span("cli.main", 0):
        code = cli.main([
            "fit", "--method", method, "--data", str(tmp_path / "internal.csv"),
            "--roles", str(tmp_path / "roles.cfg"), *inputs, "--out", str(out)])
    assert code == 0
    names = ("dataio.load_dataset", "dataio.load_population_summary",
             "dataio.ResultTable.write")
    counts = {name: [span.counts for span in tracer.spans if span.name == name]
              for name in names}
    assert counts == {
        "dataio.load_dataset": [
            {"rows": rows[name],
             "bytes_read": (tmp_path / f"{name}.csv").stat().st_size}
            for name in loaded],
        "dataio.load_population_summary": summaries,
        "dataio.ResultTable.write": [{"bytes_written": out.stat().st_size}],
    }
