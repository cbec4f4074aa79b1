#!/usr/bin/env python3
"""PhotonLoop benchmark entry point.

Builds the product and the benchmark program from the sources of this
checkout (Release, into .bench_build/), then runs one workload:

    python3 perfbench/run.py --workload dse_zoo --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
is the separate traced run that prints the per-layer table.  The last
line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
--workload all runs the three workloads one after another and ends
with one JSON object holding each workload's result line.
The full record of the run (environment, sample counts, span table)
is written to .bench_build/results/.

    python3 perfbench/run.py --self-test

corrupts one expected value per workload and checks that the output
check fires.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dse_zoo", "serve_warm", "routed_churn")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "bin", "perfbench")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no PhotonLoop sources next to %s; nothing to build" % HERE)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]):
        log("build failed")
        return False
    return os.path.isfile(BINARY)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds (first 16 hex)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def bench_env():
    env = dict(os.environ)
    env["PLOOP_THREADS"] = str(max(1, min(2, os.cpu_count() or 1)))
    return env


def bench_args(workload, seed, seconds, trace):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-sha", git_sha(), "--source-digest", source_digest(),
            "--work-dir", os.path.join(BUILD_ROOT, "run"),
            "--results-dir", os.path.join(BUILD_ROOT, "results")]


def run_all(seed, seconds, trace):
    results = {}
    for w in WORKLOADS:
        out = subprocess.run(bench_args(w, seed, seconds, trace), env=bench_env(),
                             stdout=subprocess.PIPE, text=True, timeout=175)
        lines = out.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[w] = json.loads(lines[-1])
        except ValueError:
            results[w] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        results[w]["exit_code"] = out.returncode
    correct = all(r["correct"] and r["exit_code"] == 0 for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def self_test():
    fired = True
    for w in WORKLOADS:
        args = bench_args(w, 1, 1, 0) + ["--self-test"]
        rc = subprocess.run(args, env=bench_env(), timeout=170).returncode
        fired = fired and rc == 0
    print("self-test: %s" % ("every check fired" if fired else "FAILED"))
    return 0 if fired else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not build():
        return 2
    os.makedirs(os.path.join(BUILD_ROOT, "run"), exist_ok=True)
    if a.self_test:
        return self_test()
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds
    if a.workload == "all":
        return run_all(a.seed, seconds, a.trace)
    sys.stdout.flush()
    os.execve(BINARY, bench_args(a.workload, a.seed, seconds, a.trace), bench_env())


if __name__ == "__main__":
    sys.exit(main())
