#!/usr/bin/env python3
"""Gate the selector-ladder comparison bench against its baseline.

Usage: check_selector_bench.py BENCH_selector.json bench/selector_baseline.json

Reads the measured JSON written by bench/selector_comparison and the
checked-in baseline, prints a per-model summary, and fails (exit 1) if
any of the following hold:

  - optimality (per model, measured run): pbqp_rn != 0. With only the
    exact reductions R0/R1/R2 applied, the PBQP assignment is a proven
    Agg_Cost optimum; any heuristic RN step voids that proof.
  - quality (per model, measured run): pbqp_cost > min(gcd2_cost,
    local_cost). A cross-check of the optimum against the independent
    solvers that remain on the ladder (gcd2 above it, local below).
  - search time (aggregate): sum of pbqp_seconds >= sum of
    exhaustive_seconds. The exhaustive runs are evaluation-budgeted
    lower bounds on true exhaustive time wherever they truncate
    (exhaustive_lower_bound), so PBQP beating the aggregate proves it
    beats the real exhaustive solver. The aggregate -- not per-model --
    comparison keeps the gate robust on models small enough that a
    fully-pruned exhaustive solve finishes within fractions of a
    millisecond of the PBQP solve.
  - regression (per model, vs baseline): pbqp_cost above the baseline's
    pbqp_cost. Costs are deterministic, so any increase is a real
    selection-quality regression; improvements pass (re-generate the
    baseline to lock them in).

Models present in only one of the two files are reported as failures so
baseline and bench cannot silently drift apart.
"""
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    measured = load(sys.argv[1])
    baseline = load(sys.argv[2])

    measured_models = {m["name"]: m for m in measured["models"]}
    baseline_models = {m["name"]: m for m in baseline["models"]}

    failures = 0

    def fail(message):
        nonlocal failures
        print(f"FAIL: {message}", file=sys.stderr)
        failures += 1

    for name in sorted(set(measured_models) ^ set(baseline_models)):
        where = "baseline" if name in baseline_models else "measured run"
        fail(f"model {name!r} only present in the {where}")

    pbqp_total = 0.0
    exhaustive_total = 0.0
    for name, m in measured_models.items():
        pbqp_total += m["pbqp_seconds"]
        exhaustive_total += m["exhaustive_seconds"]
        bound = ">=" if m["exhaustive_lower_bound"] else "=="
        print(
            f"{name}: free_ops={m['free_ops']}"
            f" pbqp={m['pbqp_cost']}"
            f" gcd2={m['gcd2_cost']} local={m['local_cost']}"
            f" rn={m['pbqp_rn']}"
            f" pbqp_ms={m['pbqp_seconds'] * 1e3:.3f}"
            f" exhaustive_ms{bound}{m['exhaustive_seconds'] * 1e3:.3f}"
        )
        if m["pbqp_rn"] != 0:
            fail(
                f"{name}: pbqp applied {m['pbqp_rn']} heuristic RN "
                f"reduction(s); optimality is not proven"
            )
        reference = min(m["gcd2_cost"], m["local_cost"])
        if m["pbqp_cost"] > reference:
            fail(
                f"{name}: pbqp cost {m['pbqp_cost']} exceeds "
                f"min(gcd2, local) cost {reference}"
            )
        base = baseline_models.get(name)
        if base and m["pbqp_cost"] > base["pbqp_cost"]:
            fail(
                f"{name}: pbqp cost regressed {base['pbqp_cost']} -> "
                f"{m['pbqp_cost']}"
            )

    print(
        f"totals: pbqp={pbqp_total * 1e3:.3f} ms, "
        f"exhaustive>={exhaustive_total * 1e3:.3f} ms"
    )
    if pbqp_total >= exhaustive_total:
        fail(
            f"aggregate pbqp search time {pbqp_total:.6f}s is not below "
            f"the exhaustive lower bound {exhaustive_total:.6f}s"
        )

    if failures:
        print(f"check_selector_bench: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print("check_selector_bench: all selector gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
