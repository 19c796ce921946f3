#!/usr/bin/env python3
"""Gate compile-service results against the committed snapshot.

Usage: check_service_bench.py BENCH_service.json bench/service_baseline.json

Two properties are enforced:

 - Warm start: serving ResNet-50 from the on-disk artifact store in a
   fresh service (the process-restart equivalent) must take at most
   TOLERANCE more than the snapshot's warm_start_ms. The bench reports
   the fastest of 50 fresh-service warm starts, which filters out
   per-start jitter; drift between runs (about +-10% on the 4-vCPU
   snapshot host) remains. The bound is absolute on purpose: a ratio
   against the cold compile would fail whenever cold compiles get
   faster.

 - Coalescing: 16 concurrent identical submissions must be served by
   exactly one compile.

Cold-compile time and the cold/warm ratio are printed for information
only.
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

    warm = current["warm_start_ms"]
    snapshot = baseline["warm_start_ms"]
    threshold = snapshot * (1.0 + TOLERANCE)

    print(f"cold compile:   {current['cold_compile_ms']:.1f} ms")
    print(f"warm start:     measured {warm:.3f} ms (fastest of "
          f"{current.get('warm_start_runs', 1)}), snapshot "
          f"{snapshot:.3f} ms, threshold {threshold:.3f} ms")
    print(f"warm speedup:   {current['warm_speedup']:.1f}x (not gated)")
    print(f"coalescing:     {current['coalesce_submits']} submits -> "
          f"{current['coalesce_compiles']} compile(s)")
    print(f"cached serving: {current['cached_requests_per_sec']:.0f} "
          f"requests/s")

    failed = False
    if warm > threshold:
        print(f"FAIL: warm start {warm:.3f} ms above {threshold:.3f} ms",
              file=sys.stderr)
        failed = True
    if current["coalesce_compiles"] != 1:
        print(f"FAIL: {current['coalesce_submits']} identical concurrent "
              f"submissions took {current['coalesce_compiles']} compiles "
              f"(want exactly 1)", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
