#!/usr/bin/env python3
"""Record the values perfbench/run.py checks outputs against.

    python3 perfbench/record_expected.py [--seeds 0-31]

Builds the benchmark like run.py, runs one pass of sim_cold and of
replay_sweep per seed, and rewrites perfbench/expected.json: digests
that are the same for every seed (the check pass at the fixed check
seed, the replay of the real profiles) under "any_seed", the rest (simulated profiles and statistics, the
adversarial streams) under "by_seed". Re-record only when a change is
meant to alter simulated or classified results, and say so.
"""

import argparse
import json
import os
import subprocess
import sys

import run

CHECKED = ("sim_cold", "replay_sweep")


def digests(binary, build_dir, workload, seed):
    work_dir = os.path.join(build_dir, "record")
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "digests.json")
    subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                    "--seconds", "0", "--trace", "0",
                    "--work-dir", work_dir,
                    "--profile-dir", os.path.join(build_dir, "profiles"),
                    "--digests", path],
                   stdout=subprocess.DEVNULL, check=True)
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31",
                    help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = run.build(build_dir)
    run.ensure_profiles(binary, os.path.join(build_dir, "profiles"))

    any_seed, by_seed = None, {}
    for seed in range(lo, hi + 1):
        produced = {}
        for w in CHECKED:
            produced.update(digests(binary, build_dir, w, seed))
        common = {k: v for k, v in produced.items()
                  if ".real." in k or ".fixed." in k}
        if any_seed is None:
            any_seed = common
        elif common != any_seed:
            sys.exit("error: seed-independent digests differ at seed %d"
                     % seed)
        by_seed[str(seed)] = {k: v for k, v in produced.items()
                              if k not in common}
        print("recorded seed", seed, file=sys.stderr)

    out = {"any_seed": any_seed, "by_seed": by_seed}
    with open(os.path.join(run.BENCH_DIR, "expected.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
