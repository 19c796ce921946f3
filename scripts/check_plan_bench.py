#!/usr/bin/env python3
"""Gate tiered plan-costing results against the committed snapshot.

Usage: check_plan_bench.py BENCH_plan.json bench/plan_baseline.json

Three properties are enforced:

 - Cold-compile bound: the geomean over the zoo of the default-path
   (adaptive-unroll) tiered cold compile must take at most TOLERANCE
   more than the snapshot's cold_ms_geomean.

 - Coster bound: the same geomean of the plan-table pass alone, where
   the tiered coster runs, must stay within TOLERANCE of the snapshot's
   plan_table_ms_geomean. A coster slowdown is diluted in the whole
   compile; this bound sees it undiluted.

 - Tier liveness: search mode (exhaustive unroll) must actually derive
   and prune plans zoo-wide -- a refactor that silently uncertifies
   every shape class would otherwise keep totals correct while quietly
   reverting the compile-latency win.

The bench reports the fastest of five tiered compiles per model, which
filters out per-compile jitter; drift between runs (about +-10% on the
4-vCPU snapshot host) remains. The bounds are absolute on
purpose: a speedup ratio against exhaustive costing would fail whenever
the exhaustive reference got faster. Tiered output identical to
exhaustive costing is enforced by the bench binary itself, which exits
non-zero on any cycle-total mismatch. The tiered/exhaustive speedups
are printed for information only.
"""
import json
import sys

TOLERANCE = 0.10


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    failed = False
    runs = current.get("tiered_runs", 1)
    for key, label in (("cold_ms_geomean", "default-path cold compile"),
                       ("plan_table_ms_geomean", "default-path plan-table")):
        measured = current[key]
        threshold = baseline[key] * (1.0 + TOLERANCE)
        print(f"{label}: measured {measured:.2f} ms geomean (fastest of "
              f"{runs}), snapshot {baseline[key]:.2f} ms, threshold "
              f"{threshold:.2f} ms")
        if measured > threshold:
            print(f"FAIL: {label} geomean {measured:.2f} ms above "
                  f"{threshold:.2f} ms", file=sys.stderr)
            failed = True
    for key, label in (("geomean_speedup", "default path"),
                       ("search_geomean_speedup", "search mode")):
        print(f"{label} speedup over exhaustive costing: "
              f"{current[key]:.1f}x (not gated)")

    derived = sum(m["search"]["plans_derived"] for m in current["models"])
    pruned = sum(m["search"]["plans_pruned"] for m in current["models"])
    print(f"search-mode tiers: {derived} plans derived, {pruned} pruned "
          f"across {len(current['models'])} models")
    if derived == 0:
        print("FAIL: search mode derived no plan costs (no shape class "
              "certified)", file=sys.stderr)
        failed = True
    if pruned == 0:
        print("FAIL: search mode pruned no plans (tier-1 unroll "
              "prefilter dead)", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
