"""The pinned study workloads still produce their recorded golden digests.

``perfbench/golden.json`` holds, per benchmark workload, the digest of one
reference replication (seed 7, replication 0): every method's θ̂, diag(vcov),
α̂ and clamp count.  Recomputing the two study digests here turns any bit
change in a replication's results into a Tier-1 failure.  The digest is
computed by perfbench's own ``workloads`` module, so there is one definition
of what it covers; this test only reads the golden file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["study-full", "study-model"])
def test_study_reference_digest_matches_golden(name):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    workloads = _workloads()
    assert golden["reference_seed"] == workloads.REFERENCE_SEED
    workload = workloads.WORKLOADS[name]()
    workload.prepare_reference(None)
    outcome = workload.run_reference()
    assert not outcome.failures, outcome.failures
    assert outcome.digest == golden["reference"][name]
