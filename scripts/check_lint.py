#!/usr/bin/env python3
"""Dataflow lint gate for the served kernel schedules.

Usage: check_lint.py [path/to/gcd2_lint] [--update-baseline]

Runs the gcd2_lint tool (default ./build/tools/gcd2_lint) in --json mode
over the whole evaluation zoo and fails CI when:
  - any served packed program fails the Deep served-schedule gate: a
    schedule check table finding (illegal packet, hard dependency inside
    a packet, dishonest delay claim) or an Error-severity lint finding
    (use-before-def, a provably-overlapping noalias pair, or a provably
    out-of-bounds access) -- a miscompile escaped the pipeline;
  - the run covers fewer models/programs than expected -- the lint
    silently skipped kernels;
  - the per-model findings drift from scripts/lint_baseline.json, which
    pins the count of findings *by diagnostic code* for every zoo model.
    New warnings (or silently vanished ones) must be acknowledged by
    regenerating the baseline with --update-baseline.

Warning-severity findings (maybe-uninit, dead packets, redundant loads)
are reported but do not fail the gate by themselves -- only drift from
the pinned baseline does. Dead stores in particular must never appear:
kernel generators emit none, and scripts/check_transforms.py gates
their absence strictly.
"""
import json
import os
import subprocess
import sys

EXPECTED_ZOO_MODELS = 10
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "lint_baseline.json")


def count_by_code(model: dict) -> dict:
    counts: dict = {}
    for finding in model["findings"]:
        counts[finding["code"]] = counts.get(finding["code"], 0) + 1
    return dict(sorted(counts.items()))


def main() -> int:
    argv = sys.argv[1:]
    update = "--update-baseline" in argv
    argv = [a for a in argv if a != "--update-baseline"]
    binary = argv[0] if argv else "./build/tools/gcd2_lint"
    proc = subprocess.run(
        [binary, "--json"], capture_output=True, text=True, timeout=600
    )
    sys.stderr.write(proc.stderr)

    # Exit 1 (warnings only) is acceptable; 2 means Error diags; anything
    # else means the tool itself fell over.
    if proc.returncode not in (0, 1, 2):
        print(f"FAIL: gcd2_lint exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        print(f"FAIL: gcd2_lint --json output unparseable: {err}",
              file=sys.stderr)
        sys.stdout.write(proc.stdout)
        return 1

    summary = report["summary"]
    observed = {m["model"]: count_by_code(m) for m in report["models"]}

    if update:
        with open(BASELINE_PATH, "w") as fh:
            json.dump(observed, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"check_lint: baseline regenerated at {BASELINE_PATH} "
              f"({summary['models']} models, {summary['warnings']} "
              "warnings)")
        return 0

    failures = 0
    if summary["models"] != EXPECTED_ZOO_MODELS:
        print(f"FAIL: expected {EXPECTED_ZOO_MODELS} models linted, "
              f"saw {summary['models']}", file=sys.stderr)
        failures += 1
    if summary["programs"] == 0:
        print("FAIL: lint covered zero served programs", file=sys.stderr)
        failures += 1
    if summary["errors"] != 0:
        print(f"FAIL: {summary['errors']} Error-severity lint finding(s) "
              "on served schedules", file=sys.stderr)
        failures += 1

    if not os.path.exists(BASELINE_PATH):
        print(f"FAIL: no findings baseline at {BASELINE_PATH}; generate "
              "one with --update-baseline", file=sys.stderr)
        failures += 1
    else:
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        for name in sorted(set(baseline) | set(observed)):
            want = baseline.get(name)
            got = observed.get(name)
            if want is None:
                print(f"FAIL: model '{name}' linted but absent from the "
                      "baseline", file=sys.stderr)
                failures += 1
            elif got is None:
                print(f"FAIL: baseline model '{name}' was not linted",
                      file=sys.stderr)
                failures += 1
            elif want != got:
                print(f"FAIL: findings drift on '{name}': baseline "
                      f"{want} vs observed {got} (regenerate with "
                      "--update-baseline if intended)", file=sys.stderr)
                failures += 1

    if failures:
        print(f"check_lint: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"check_lint: {summary['programs']} served programs across "
          f"{summary['models']} models lint Error-free "
          f"({summary['warnings']} warnings, findings match baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
