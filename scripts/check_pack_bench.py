#!/usr/bin/env python3
"""Gate packer-throughput results against the checked-in baseline.

Usage: check_pack_bench.py BENCH_pack.json bench/pack_baseline.json

The benchmark reports the fast-packer / reference-packer speedup per
case and as two geometric means: on single blocks of >= 512
instructions, and on the zoo's tile-kernel blocks (~10-140
instructions, where the repair pass dominates). Each speedup is a
same-machine ratio of the two packers measured interleaved in every
repetition, so host speed drift cancels; the reference packer is the
fixed yardstick. A ratio still depends on the CPU's caches and branch
prediction, so the baselines are set below the values measured on the
host they were taken on (see bench/pack_baseline.json). This gate fails
when either measured geomean falls more than 20% below the baseline's,
and enforces the hard floor that the scalable packer is at least 5x the
reference on large blocks.
"""
import json
import sys

ALLOWED_REGRESSION = 0.20
HARD_FLOOR = 5.0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        current = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    print("blocks:")
    for k in current.get("kernels", []) + current.get("zoo_blocks", []):
        print(f"  {k['name']:32s} speedup {k['speedup']:.2f}x "
              f"({k['instructions']} insts, {k['static_packets']} packets)")

    failed = False
    for key, label, floor in (
            ("geomean_speedup", "large-block", HARD_FLOOR),
            ("zoo_geomean_speedup", "zoo-block", 0.0)):
        measured = current[key]
        expected = baseline[key]
        threshold = max(expected * (1.0 - ALLOWED_REGRESSION), floor)
        print(f"{label} geomean speedup: measured {measured:.2f}x, "
              f"baseline {expected:.2f}x, threshold {threshold:.2f}x")
        if measured < threshold:
            print(f"FAIL: {label} fast-packer speedup {measured:.2f}x "
                  f"regressed below {threshold:.2f}x", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
