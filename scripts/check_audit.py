#!/usr/bin/env python3
"""Mutation smoke check for the compilation auditors.

Usage: check_audit.py [path/to/audit_smoke]

Drives the audit_smoke tool (default ./build/tools/audit_smoke) through
its four modes and fails CI when:
  - any seeded corruption audits clean (findings=0) -- the auditor has a
    blind spot;
  - any control (uncorrupted) artifact is flagged -- the auditor has a
    false-positive;
  - any of the ten zoo models compiles with Error diagnostics or off the
    requested selection rung -- the production pipeline is degraded --
    under either the default options (clean-zoo: the PBQP rung, Cheap
    audit) or the PBQP rung requested explicitly with the Deep audit
    (pbqp-zoo).
"""
import re
import subprocess
import sys

EXPECTED_ZOO_MODELS = 10


def run_mode(binary: str, mode: str) -> list[str]:
    proc = subprocess.run(
        [binary, mode], capture_output=True, text=True, timeout=600
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"FAIL: {binary} {mode} exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return proc.stdout.splitlines()


def check_corruptions(lines: list[str], mode: str) -> int:
    failures = 0
    cases = 0
    for line in lines:
        match = re.fullmatch(
            rf"{mode} (?P<label>[\w-]+) findings=(?P<n>\d+)", line
        )
        if not match:
            continue
        cases += 1
        label, findings = match["label"], int(match["n"])
        if label == "control-clean":
            if findings != 0:
                print(f"FAIL: {mode} control audited dirty "
                      f"({findings} findings)", file=sys.stderr)
                failures += 1
        elif findings == 0:
            print(f"FAIL: {mode} corruption '{label}' audited clean",
                  file=sys.stderr)
            failures += 1
    if cases < 2:
        print(f"FAIL: {mode} produced no parseable cases", file=sys.stderr)
        failures += 1
    return failures


def check_zoo(lines: list[str], mode: str = "clean-zoo") -> int:
    failures = 0
    models = 0
    for line in lines:
        match = re.fullmatch(
            rf"{mode} model=(?P<name>\S+) errors=(?P<e>\d+) "
            r"warnings=(?P<w>\d+) rung=(?P<r>\d+).*", line
        )
        if not match:
            continue
        models += 1
        if int(match["e"]) != 0:
            print(f"FAIL: model {match['name']} compiled with "
                  f"{match['e']} audit errors", file=sys.stderr)
            failures += 1
        if int(match["r"]) != 0:
            print(f"FAIL: model {match['name']} served off the requested "
                  f"selection rung ({match['r']})", file=sys.stderr)
            failures += 1
    if models != EXPECTED_ZOO_MODELS:
        print(f"FAIL: expected {EXPECTED_ZOO_MODELS} zoo compiles, "
              f"saw {models}", file=sys.stderr)
        failures += 1
    return failures


def main() -> int:
    binary = sys.argv[1] if len(sys.argv) > 1 else "./build/tools/audit_smoke"
    failures = 0
    failures += check_corruptions(
        run_mode(binary, "corrupt-selection"), "corrupt-selection")
    failures += check_corruptions(
        run_mode(binary, "corrupt-schedule"), "corrupt-schedule")
    failures += check_zoo(run_mode(binary, "clean-zoo"))
    failures += check_zoo(run_mode(binary, "pbqp-zoo"), "pbqp-zoo")
    if failures:
        print(f"check_audit: {failures} failure(s)", file=sys.stderr)
        return 1
    print("check_audit: auditors reject all seeded corruptions and the "
          "zoo compiles clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
