"""Record or check the golden digests in perfbench/golden.json.

From the root of a checkout:

    python3 perfbench/golden.py --check
    python3 perfbench/golden.py --record --seeds 0-31

Per workload the file holds a reference digest (the warm-up operation at
REFERENCE_SEED, which every run checks) and, per seed, the digest of the
first ``count_block`` operations, which a run checks when its seed is listed.
It also pins ROADMAP's golden study hash: the SHA-256 of the CSV written by
``selweight simulate --dag 3 --setup 1 --replications 40 --seed 7``, which
must be the same at --threads 1 and --threads 2. That study takes about 12 s
on one worker, so only this script checks it, not every benchmark run.
"""

import argparse
import hashlib
import json
import shutil
import sys

from run import GOLDEN, WORKDIR

import workloads

SIMULATE_ARGV = ["simulate", "--dag", "3", "--setup", "1",
                 "--replications", "40", "--seed", "7"]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def compute(seeds):
    """Every digest the golden file holds, computed from this checkout."""
    result = {"reference_seed": workloads.REFERENCE_SEED, "reference": {},
              "blocks": {}, "simulate": {"argv": SIMULATE_ARGV}}
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        workload.prepare_reference(WORKDIR)
        result["reference"][name] = workload.run_reference().digest
        result["blocks"][name] = {}
        for seed in seeds:
            workload.prepare(seed, WORKDIR)
            outcomes = [workload.run(i) for i in range(workload.count_block)]
            result["blocks"][name][str(seed)] = workloads.block_digest(outcomes)
            print(f"{name} seed {seed}: {result['blocks'][name][str(seed)]}",
                  file=sys.stderr)
    hashes = set()
    for threads in ("1", "2"):
        out = WORKDIR / f"simulate_{threads}.csv"
        code = workloads.cli.main(SIMULATE_ARGV + ["--threads", threads,
                                                   "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}")
        hashes.add(hashlib.sha256(out.read_bytes()).hexdigest())
    if len(hashes) != 1:
        raise RuntimeError(f"simulate output differs between 1 and 2 workers: {hashes}")
    result["simulate"]["sha256"] = hashes.pop()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--record", action="store_true")
    parser.add_argument("--seeds", type=seed_range, default=None,
                        help="seed range such as 0-31 (default: the recorded seeds)")
    args = parser.parse_args()
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    seeds = args.seeds
    if seeds is None:
        seeds = sorted(int(s) for s in recorded["blocks"]["study-full"]) if recorded else [1]

    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        fresh = compute(seeds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if args.record:
        GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"recorded {GOLDEN}")
        return 0
    mismatches = [f"reference/{name}" for name, digest in fresh["reference"].items()
                  if digest != recorded["reference"].get(name)]
    mismatches += [f"blocks/{name}/{seed}"
                   for name, by_seed in fresh["blocks"].items()
                   for seed, digest in by_seed.items()
                   if digest != recorded["blocks"][name].get(seed)]
    if fresh["simulate"] != recorded["simulate"]:
        mismatches.append("simulate")
    print("golden digests: " + ("all match" if not mismatches
                                else "MISMATCH in " + ", ".join(mismatches)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
