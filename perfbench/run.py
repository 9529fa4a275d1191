"""selweight benchmark: run one workload for a fixed time and check its outputs.

From the root of a checkout:

    python3 perfbench/run.py --workload study-full --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each exists): study-full,
study-model, cli-files. Each is a closed loop in this one process: the next
operation starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every operation twice, untraced and traced, in alternating order: it
checks that the traced replay reproduces the untraced outputs byte for byte,
reports the per-layer metrics from the spans and the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 only when every check passed.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Timings are reported in seconds at the machine speed at which the reference
# kernel below takes this long; see ReferenceClock.
REFERENCE_KERNEL_S = 0.005


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-full", "study-model", "cli-files"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # one timed set-up, see probe()
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def probe(workloads, name):
    """Import selweight and run the reference operation once; print its digest.

    The parent times this whole process, so set-up time covers interpreter
    start, ``import selweight`` and one warm-up operation.
    """
    workload = workloads.WORKLOADS[name]()
    workload.prepare_reference(WORKDIR, write=False)
    print(workload.run_reference().digest)
    return 0


class ReferenceClock:
    """Scales wall time to seconds at a fixed machine speed.

    The 2-core host this benchmark was built on switches between clock states
    for stretches of 10-30 s: a fixed pure-Python loop ran in 36 ms in some
    3-s windows and 62 ms in others, and the median replication time of ten
    35-s runs moved by up to 23% between two sets of runs of unchanged code.
    A fixed kernel, half Python float parsing and half numpy on a 50,000 x 4
    array like the package's own work, is timed between operations. Each
    interval is scaled by REFERENCE_KERNEL_S over the mean of the kernel times
    just before and just after it. In an interleaved test this cut the range
    of 20-s window medians from 21-39% to 7-16%.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((50_000, 4))
        self._v = rng.random(4)
        self._text = [repr(f) for f in rng.random(6000).tolist()]
        self._before = self._kernel()

    def _kernel(self):
        start = time.perf_counter()
        totals = {}
        for i, token in enumerate(self._text):
            totals[i % 64] = totals.get(i % 64, 0.0) + float(token)
        for _ in range(3):
            p = 1.0 / (1.0 + np.exp(-(self._x @ self._v)))
            (self._x.T * p) @ self._x
        return time.perf_counter() - start

    def scale(self):
        """Factor for the interval since the previous call."""
        after = self._kernel()
        factor = REFERENCE_KERNEL_S / (0.5 * (self._before + after))
        self._before = after
        return factor


def time_setup(name, clock):
    """Median reference-clock time of SETUP_PROBES probe processes, the
    median wall time, and the probes' digests."""
    wall, reference, digests = [], [], set()
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        wall.append(time.perf_counter() - start)
        reference.append(wall[-1] * clock.scale())
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        digests.add(done.stdout.strip().splitlines()[-1])
    return statistics.median(reference), statistics.median(wall), digests


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Tally:
    """Operation counts, failures by kind and the first block's outcomes."""

    def __init__(self, workload):
        self.workload = workload
        self.times, self.reference_times, self.block = [], [], []
        self.attempted, self.rows = 0, 0
        self.failures = Counter()
        self.consistent = True
        self._first_round = []

    def add(self, index, outcome, scale=1.0):
        self.times.append(outcome.seconds)
        self.reference_times.append(outcome.seconds * scale)
        self.attempted += outcome.attempted
        self.rows += outcome.rows
        self.failures.update(outcome.failures)
        if index < self.workload.count_block:
            self.block.append(outcome)
        # cli-files repeats its command mix on the same files, so every round
        # must reproduce the first one's outputs.
        if self.workload.round_size > 1:
            slot = index % self.workload.round_size
            if index < self.workload.round_size:
                self._first_round.append(outcome.digest)
            elif outcome.digest != self._first_round[slot]:
                self.consistent = False

    @property
    def failed(self):
        return sum(self.failures.values())


def measure(workload, seconds, clock, tracer=None):
    """Closed loop for ``seconds``; time is checked only between whole rounds.

    Without a tracer the reference kernel runs between operations. With a
    tracer every operation runs twice, untraced and traced, in an order that
    alternates; the traced replay must reproduce the untraced output bytes
    exactly.
    """
    plain, traced = Tally(workload), Tally(workload)
    replay_equal = True
    start = time.perf_counter()
    index = 0
    while True:
        for _ in range(workload.round_size):
            if tracer is None:
                outcome = workload.run(index)
                plain.add(index, outcome, clock.scale())
            else:
                outcomes = {}
                for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
                    if is_traced:
                        with tracer.installed():
                            outcomes[True] = workload.run(index, tracer)
                    else:
                        outcomes[False] = workload.run(index)
                replay_equal &= outcomes[True].exact == outcomes[False].exact
                plain.add(index, outcomes[False])
                traced.add(index, outcomes[True])
            index += 1
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced, replay_equal, time.perf_counter() - start


def end_to_end(tally, times, setup_s):
    """End-to-end metrics from per-operation times and the set-up time."""
    busy = sum(times)  # program time only, without the benchmark's checks
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / busy,
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90(times),
        "rows_per_s": tally.rows / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_end_to_end(name, tally, metrics, wall_setup_s):
    """Per-workload names of the end-to-end metrics, with wall-clock values."""
    wall = end_to_end(tally, tally.times, wall_setup_s)
    if name == "cli-files":
        lines = [("command_s_p50", "op_s_p50", "s"),
                 ("command_s_p90", "op_s_p90", "s"),
                 ("input_rows_per_s", "rows_per_s", "rows/s")]
        what = "commands"
    else:
        lines = [("replications_per_s", "ops_per_s", "1/s"),
                 ("replication_s_p50", "op_s_p50", "s"),
                 ("replication_s_p90", "op_s_p90", "s")]
        what = "replications"
    lines += [("peak_rss_mb", "peak_rss_mb", "MB"), ("setup_s", "setup_s", "s")]
    print(f"{name}: {len(tally.times)} {what}, closed loop, one process; "
          f"{tally.attempted} ops attempted, {tally.failed} failed; "
          f"reference clock / wall clock")
    for label, key, unit in lines:
        print(f"  {label:<20} {metrics[key]:.6g} / {wall[key]:.6g} {unit}")
    print(f"  {'error_rate':<20} {tally.failed / tally.attempted:.6g} share")
    kinds = ", ".join(f"{k}: {v}" for k, v in sorted(tally.failures.items()))
    print(f"  failures by kind     {kinds or 'none'}")


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import selweight from this checkout's src/: "
              f"{exc}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(workloads, args.workload)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    name = args.workload
    checks = {}

    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[name]()
        workload.prepare(args.seed, WORKDIR)
        workload.prepare_reference(WORKDIR)
        # The warm-up operation doubles as the reference check.
        reference = workload.run_reference().digest
        checks["reference digest"] = reference == golden["reference"][name]

        clock = ReferenceClock()
        setup_s = wall_setup_s = 0.0
        if not args.trace:
            setup_s, wall_setup_s, probe_digests = time_setup(name, clock)
            checks["set-up probe digests"] = probe_digests == {reference}

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        plain, traced, replay_equal, elapsed = measure(workload, args.seconds, clock, tracer)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    block = workloads.block_digest(plain.block)
    expected = golden["blocks"][name].get(str(args.seed))
    if expected is not None:
        checks["block digest"] = block == expected
    if workload.round_size > 1:
        checks["rounds repeat"] = plain.consistent and (traced.consistent or not args.trace)

    if args.trace:
        checks["replay equivalence"] = replay_equal
        metrics = spans.layer_metrics(tracer.spans, workload.count_block)
        untraced_p50 = statistics.median(plain.times)
        metrics["trace.overhead_s"] = statistics.median(traced.times) - untraced_p50
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_p50
        wanted = spec["per_layer"]
        print(f"{name}: {len(plain.times)} operations, each untraced and traced, "
              f"in {elapsed:.2f} s; counts over operations 0..{workload.count_block - 1}")
        unused = [m["name"] for m in wanted if m["name"] not in metrics]
        if unused:
            print(f"  not exercised here (reported as 0): {', '.join(unused)}")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    else:
        metrics = end_to_end(plain, plain.reference_times, setup_s)
        wanted = spec["end_to_end"]
        report_end_to_end(name, plain, metrics, wall_setup_s)
        attempted, failed = plain.attempted, plain.failed

    out = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
           for m in wanted}
    if args.trace:
        for key, entry in out.items():
            print(f"  {key:<46} {entry['value']:.6g} {entry['unit']}")
    print(f"  block digest (ops 0..{workload.count_block - 1}, seed {args.seed}): "
          f"{block}" + ("" if expected is not None else " (no golden digest recorded)"))
    for label, ok in checks.items():
        print(f"  check {label}: {'ok' if ok else 'FAILED'}")
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
