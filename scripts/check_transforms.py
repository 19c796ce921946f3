#!/usr/bin/env python3
"""Transform-elimination / dead-code gate.

Usage: check_transforms.py [path/to/gcd2_transform_report] [baseline.json]

Runs the gcd2_transform_report tool (default
./build/tools/gcd2_transform_report) over the whole evaluation zoo and
fails CI when:
  - any served packed program carries a dead store -- a kernel
    generator emitted an instruction nothing reads (served programs are
    the generated kernels exactly as plan costing simulated them);
  - any model's post-elimination transform-cycle bill exceeds its
    pre-elimination bill -- elimination made a model worse;
  - the geomean of per-model transform-cycles regresses more than
    ALLOWED_REGRESSION above the committed bench/transform_baseline.json
    -- a change quietly re-introduced standing layout transforms;
  - fewer models than expected are covered.

The compile pipeline is deterministic, so the small tolerance only
absorbs intentional cost-model retunes; genuine regressions show up far
above it.
"""
import json
import math
import os
import re
import subprocess
import sys

EXPECTED_ZOO_MODELS = 10
ALLOWED_REGRESSION = 0.02

LINE_RE = re.compile(
    r"transform model=(?P<model>\S+) transform-cycles=(?P<cycles>\d+) "
    r"transform-cycles-pre=(?P<pre>\d+) eliminated=(?P<elim>\d+) "
    r"programs=(?P<progs>\d+) dead-store=(?P<dead>\d+)"
)


def geomean(values):
    # +1 guards models whose transform bill is already zero.
    return math.exp(
        sum(math.log(v + 1.0) for v in values) / len(values)) - 1.0


def main() -> int:
    binary = (sys.argv[1] if len(sys.argv) > 1
              else "./build/tools/gcd2_transform_report")
    baseline_path = (sys.argv[2] if len(sys.argv) > 2
                     else os.path.join(os.path.dirname(__file__), "..",
                                       "bench", "transform_baseline.json"))
    proc = subprocess.run(
        [binary], capture_output=True, text=True, timeout=600
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        print(f"FAIL: gcd2_transform_report exited {proc.returncode}",
              file=sys.stderr)
        return 1

    models = {}
    for line in proc.stdout.splitlines():
        match = LINE_RE.fullmatch(line)
        if match:
            models[match["model"]] = match

    failures = 0
    if len(models) != EXPECTED_ZOO_MODELS:
        print(f"FAIL: expected {EXPECTED_ZOO_MODELS} models reported, "
              f"saw {len(models)}", file=sys.stderr)
        failures += 1
    for name, m in models.items():
        if int(m["dead"]) != 0:
            print(f"FAIL: {name} serves {m['dead']} dead store(s)",
                  file=sys.stderr)
            failures += 1
        if int(m["cycles"]) > int(m["pre"]):
            print(f"FAIL: {name} transform-cycles {m['cycles']} exceeds "
                  f"pre-elimination bill {m['pre']}", file=sys.stderr)
            failures += 1

    with open(baseline_path) as f:
        baseline = json.load(f)["transform_cycles"]
    missing = sorted(set(baseline) - set(models))
    if missing:
        print(f"FAIL: baseline models not reported: {missing}",
              file=sys.stderr)
        failures += 1
    elif models:
        current = geomean([int(models[n]["cycles"]) for n in baseline])
        expected = geomean([baseline[n] for n in baseline])
        threshold = expected * (1.0 + ALLOWED_REGRESSION)
        print(f"transform-cycles geomean: measured {current:.1f}, "
              f"baseline {expected:.1f}, threshold {threshold:.1f}")
        if current > threshold:
            print(f"FAIL: transform-cycles geomean {current:.1f} "
                  f"regressed above {threshold:.1f}", file=sys.stderr)
            failures += 1

    if failures:
        print(f"check_transforms: {failures} failure(s)", file=sys.stderr)
        return 1
    print(f"check_transforms: {len(models)} models dead-store-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
