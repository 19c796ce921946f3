#!/usr/bin/env python3
"""Repository benchmark: build gcd2_perfbench from source and run one workload.

    python3 perfbench/run.py --workload zoo-cold|zoo-deep|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark and the library are built
under .bench_build/ (first run only; later runs rebuild incrementally), and
each run works in .bench_build/runs/<workload>-<seed>/, where a traced run
leaves its span file. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The exit
status is non-zero when the build fails, an output check fails, or the
metric set differs from BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gcd2_perfbench")
WORKLOADS = ("zoo-cold", "zoo-deep", "serve-mix")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            sys.exit("error: building the benchmark failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(workload, seed, seconds, trace, self_test=False):
    """Run one workload in its own process; returns (exit code, stdout lines)."""
    work_dir = os.path.join(ROOT, ".bench_build", "runs",
                            "%s-%d" % (workload, seed))
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if self_test:
        cmd.append("--self-test")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("error: %s did not finish within %d s" %
                 (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, trace, self_test=False):
    """Parse the result line; returns (result, problems)."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, ["no result line"]
    problems = []
    got = set(result.get("metrics", {}))
    want = expected_metrics(trace)
    if self_test:
        # One model: only its per-model rows exist.
        want = {m for m in want if not m.startswith("model.")} | \
               {m for m in got if m.startswith("model.")}
    if got != want:
        problems.append("metrics missing %s, unexpected %s" %
                        (sorted(want - got), sorted(got - want)))
    if result.get("failed") != 0 or not result.get("correct"):
        problems.append("%s of %s operations failed" %
                        (result.get("failed"), result.get("attempted")))
    return result, problems


def digest(lines):
    for line in lines:
        if line.startswith("input_digest "):
            return line.split()[1]
    return None


def self_test():
    """One model, one pass, a few dozen requests, per workload."""
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        runs = {}
        for label, seed, trace in (("a", 1, False), ("b", 1, True),
                                   ("c", 2, False)):
            code, lines = run_binary(workload, seed, 0.2, trace,
                                     self_test=True)
            _, problems = check_result(lines, trace, self_test=True)
            if code != 0:
                problems.append("exit status %d" % code)
            failures += ["%s/%s: %s" % (workload, label, p) for p in problems]
            runs[label] = digest(lines)
        if runs["a"] is None or runs["a"] != runs["b"]:
            failures.append("%s: the same seed gave different inputs" %
                            workload)
        if workload == "serve-mix" and runs["a"] == runs["c"]:
            failures.append("serve-mix: two seeds gave the same requests")
        print("%-10s %s" % (workload,
                            "ok" if len(failures) == before else "FAILED"))
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return self_test()

    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    result, problems = check_result(lines, bool(args.trace))
    for problem in problems:
        print("error: " + problem, file=sys.stderr)
    if result is None:
        return code or 1
    print("\n".join(lines))
    return code or (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
