"""The benchmark workloads still produce their recorded golden digests.

``perfbench/golden.json`` holds, per benchmark workload, the digest of one
reference operation at seed 7: for a study, every method's θ̂, diag(vcov), α̂
and clamp count of replication 0; for cli-files, the bytes ``fit --method
pl`` writes.  Per seed it also holds the digest of a run's first block of
operations: replications 0-3 of a study, all seven commands of the cli-files
mix; seed 1's blocks, which a default benchmark run compares, are checked
here.  It also holds the SHA-256 of the table one ``selweight simulate``
study writes.
Recomputing these digests here turns any bit change in a replication's
results or in a command's output file into a Tier-1 failure.  The digests
are computed by perfbench's own ``workloads`` module, so there is one
definition of what they cover; this test only reads the golden file.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from selweight import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden():
    return json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["study-full", "study-model"])
def test_study_reference_digest_matches_golden(name):
    golden = _golden()
    workloads = _workloads()
    assert golden["reference_seed"] == workloads.REFERENCE_SEED
    workload = workloads.WORKLOADS[name]()
    workload.prepare_reference(None)
    outcome = workload.run_reference()
    assert not outcome.failures, outcome.failures
    assert outcome.digest == golden["reference"][name]


@pytest.mark.parametrize("name", ["study-full", "study-model"])
def test_study_block_digest_matches_golden(name):
    """Replications 0-3 at seed 1, the block every default run compares."""
    golden = _golden()
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]()
    workload.prepare(1, None)
    outcomes = [workload.run(i) for i in range(workload.count_block)]
    assert (workloads.block_digest(outcomes)
            == golden["blocks"][name]["1"])


def test_cli_files_digests_match_golden(tmp_path):
    golden = _golden()
    workloads = _workloads()
    assert golden["reference_seed"] == workloads.REFERENCE_SEED
    workload = workloads.WORKLOADS["cli-files"]()
    workload.prepare_reference(tmp_path)
    outcome = workload.run_reference()
    assert not outcome.failures, outcome.exact
    assert outcome.digest == golden["reference"]["cli-files"]

    workload.prepare(1, tmp_path)
    outcomes = [workload.run(i) for i in range(workload.count_block)]
    assert [o.exact for o in outcomes if o.failures] == []
    assert (workloads.block_digest(outcomes)
            == golden["blocks"]["cli-files"]["1"])


def test_simulate_output_matches_golden_hash(tmp_path):
    golden = _golden()["simulate"]
    out = tmp_path / "study.csv"
    assert cli.main(golden["argv"] + ["--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]
