"""The benchmark's tracer still finds every function it traces.

``perfbench/spans.py`` records a span by replacing each ``TRACED`` function
in every ``CALLERS`` module that refers to it by name.  A function that was
renamed or moved, or that no caller imports under that name any more, is
silently left untraced, and its layer's metrics vanish from the benchmark
without an error.  This test loads ``spans.py`` as it is and checks both
conditions for every traced function.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
