#!/usr/bin/env python3
"""Gate simulator-throughput results against the checked-in baseline.

Usage: check_sim_bench.py BENCH_sim.json bench/sim_baseline.json

The benchmark reports the decoded-engine / reference-interpreter speedup
per kernel and as a geometric mean. The speedup is a same-machine ratio,
so it is comparable across CI runners in a way absolute packets/sec are
not. This gate fails when the measured geomean speedup falls more than
20% below the baseline's, or below the hard floor that the decoded
engine is at least 2x the reference, and when any single kernel's
speedup falls below that floor.
"""
import json
import sys

ALLOWED_REGRESSION = 0.20
HARD_FLOOR = 2.0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    measured = current["geomean_speedup"]
    expected = baseline["geomean_speedup"]
    threshold = max(expected * (1.0 - ALLOWED_REGRESSION), HARD_FLOOR)

    failed = False
    print("kernels:")
    for k in current["kernels"]:
        slow = k["speedup"] < HARD_FLOOR
        print(f"  {k['name']:32s} speedup {k['speedup']:.2f}x "
              f"({k['dynamic_packets']} packets)"
              f"{'  BELOW FLOOR' if slow else ''}")
        if slow:
            print(f"FAIL: {k['name']} decoded-engine speedup "
                  f"{k['speedup']:.2f}x is below the {HARD_FLOOR:.1f}x "
                  f"floor", file=sys.stderr)
            failed = True
    print(f"geomean speedup: measured {measured:.2f}x, "
          f"baseline {expected:.2f}x, threshold {threshold:.2f}x")

    if measured < threshold:
        print(f"FAIL: decoded-engine speedup {measured:.2f}x regressed "
              f"below {threshold:.2f}x", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
