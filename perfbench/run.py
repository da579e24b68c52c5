#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source tree. On first use it configures and
builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build) and
simulates the warm profile cache replay_sweep reads (about 30 s on 4
cores); later runs only check that both are up to date. The last line
of standard output is the JSON result. The run fails (exit code 1,
"correct": false) when the program's outputs disagree with the
values recorded in perfbench/expected.json (those of a fixed check
seed on every run, and the run seed's own when recorded), or when any
of the benchmark's own checks fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOADS = ("sim_cold", "replay_sweep", "serve_steady", "serve_churn")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sources_digest():
    """Digest of everything under src/: the profile cache is rebuilt
    whenever the program it was simulated with changes."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC_DIR):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, SRC_DIR).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    run_quiet(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
               "--target", "perfbench"], 800)
    return os.path.join(build_dir, "perfbench")


def ensure_profiles(binary, profile_dir):
    marker = os.path.join(profile_dir, "complete.txt")
    digest = sources_digest()
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == digest:
                return
    log("[perfbench] simulating the warm profile cache into", profile_dir)
    os.makedirs(profile_dir, exist_ok=True)
    for name in os.listdir(profile_dir):
        os.remove(os.path.join(profile_dir, name))
    run_quiet([binary, "--prepare-profiles", profile_dir,
               "--jobs", BUILD_JOBS], 800)
    with open(marker, "w") as f:
        f.write(digest + "\n")


def expected_for(seed):
    """Recorded values that hold for every seed (the batch workloads'
    check pass at a fixed seed, the replay of the real profiles), then
    this seed's own, when it has any."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        recorded = json.load(f)
    out = dict(recorded["any_seed"])
    out.update(recorded["by_seed"].get(str(seed), {}))
    return out


def compare(produced, expected, workloads):
    """Mismatches between produced digests and recorded ones. Every
    recorded key of a workload in @workloads must have been produced."""
    out = []
    for k, v in sorted(expected.items()):
        if k.split(".", 1)[0] not in workloads:
            continue
        if k not in produced:
            out.append("%s: expected %s, not produced" % (k, v))
        elif produced[k] != v:
            out.append("%s: expected %s, got %s" % (k, v, produced[k]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        log("error: no program sources at", SRC_DIR)
        return 1
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        binary = build(build_dir)
        profile_dir = os.path.join(build_dir, "profiles")
        ensure_profiles(binary, profile_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log("error: build failed:", e)
        return 1

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    digests_path = os.path.join(work_dir, "digests.json")
    if os.path.exists(digests_path):
        os.remove(digests_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--profile-dir", profile_dir,
           "--digests", digests_path]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(work_dir, "spans_%s.jsonl" % args.workload)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: the run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log("error: perfbench printed nothing (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("error: perfbench's last line is not JSON:", lines[-1])
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("error: unexpected result keys", sorted(result))
        return 1

    mismatches = []
    if os.path.isfile(digests_path):
        with open(digests_path) as f:
            produced = json.load(f)
        # A traced run also makes a short pass of every other workload.
        ran = WORKLOADS if args.trace == "1" else (args.workload,)
        expected = expected_for(args.seed)
        mismatches = compare(produced, expected, ran)
        print("checked %d recorded values for seed %d" % (
            sum(1 for k in expected if k.split(".", 1)[0] in ran),
            args.seed))
    elif proc.returncode == 0:
        mismatches = ["perfbench wrote no digests"]
    for m in mismatches:
        log("CHECK FAILED: recorded value mismatch:", m)
    if mismatches:
        result["correct"] = False
    print("run took %.1f s" % (time.monotonic() - started))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
