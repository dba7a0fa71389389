#!/usr/bin/env python3
"""Compare google-benchmark JSON reports against checked-in floors.

Usage:
    check_bench_floor.py --floors bench/bench_floors.json REPORT.json...

Each floor entry names a benchmark (exactly as it appears in the report's
"name" field) and its reference wall time in nanoseconds.  The check fails
when a measured real_time exceeds factor * floor -- a wide margin, so only
genuine regressions (an accidentally quadratic fast path, a lost prefilter)
trip it, not machine noise.  A floor entry missing from every report also
fails: silently dropping a benchmark must not silently drop its guard.

Two further guards:

  * Stale-floor WARN: a measurement beating its floor by more than 10x
    means the floor no longer describes the code (an optimization landed
    without re-baselining) and the 5x failure margin has quietly become a
    50x one.  Warns rather than fails -- going faster is not a regression
    -- but the floor should be re-baselined.
  * Ratios: the optional "ratios" section pins *relative* gaps (e.g. the
    cost-planned join order vs the written order, a warm cache hit vs a
    cold evaluation).  Each entry fails when time(slower) / time(faster)
    drops below its min_ratio -- absolute floors cannot catch the two sides
    drifting together -- or, for an entry with a max_ratio, rises above
    it (a cost that must stay flat as an input grows, e.g. a lookup against
    a 10x catalog vs the 1x one).  An entry carries either bound or both.
"""

import argparse
import json
import sys


def load_report_times(paths):
    """name -> real_time in ns, across all reports (later files win)."""
    times = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for b in report.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            unit = b.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
            if scale is None:
                sys.exit(f"{path}: unknown time_unit {unit!r}")
            name = b["name"]
            # BigO/RMS rows repeat the name with a suffix and carry no
            # real_time comparable to a floor.
            if name.endswith("_BigO") or name.endswith("_RMS"):
                continue
            times[name] = float(b["real_time"]) * scale
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--floors", required=True)
    parser.add_argument("reports", nargs="+")
    args = parser.parse_args()

    with open(args.floors) as f:
        config = json.load(f)
    factor = float(config["factor"])
    floors = config["floors_ns"]

    times = load_report_times(args.reports)
    failures = []
    warnings = []
    for name, floor in sorted(floors.items()):
        measured = times.get(name)
        if measured is None:
            failures.append(f"{name}: not found in any report")
            continue
        limit = factor * floor
        # measured/floor: <1.0 means faster than the reference baseline,
        # >factor trips the gate.  Printed for every benchmark so perf
        # drift is visible long before it becomes a failure.
        ratio = measured / floor if floor > 0 else float("inf")
        verdict = "ok"
        if measured > limit:
            verdict = "FAIL"
        elif measured * 10 < floor:
            verdict = "WARN"
        print(f"{verdict:>4}  {name}: {measured / 1e6:.3f} ms "
              f"(floor {floor / 1e6:.3f} ms, limit {limit / 1e6:.3f} ms, "
              f"ratio {ratio:.2f}x)")
        if verdict == "FAIL":
            failures.append(
                f"{name}: {measured / 1e6:.3f} ms exceeds "
                f"{factor}x floor {floor / 1e6:.3f} ms")
        elif verdict == "WARN":
            warnings.append(
                f"{name}: {measured / 1e6:.3f} ms beats its floor "
                f"{floor / 1e6:.3f} ms by >10x -- stale floor, "
                f"re-baseline it")

    for entry in config.get("ratios", []):
        slower, faster = entry["slower"], entry["faster"]
        min_ratio, max_ratio = entry.get("min_ratio"), entry.get("max_ratio")
        if min_ratio is None and max_ratio is None:
            sys.exit(f"ratio {slower} / {faster}: "
                     f"needs a min_ratio or a max_ratio")
        t_slow, t_fast = times.get(slower), times.get(faster)
        if t_slow is None or t_fast is None:
            missing = slower if t_slow is None else faster
            failures.append(f"ratio {slower} / {faster}: "
                            f"{missing} not found in any report")
            continue
        ratio = t_slow / t_fast if t_fast > 0 else float("inf")
        bounds, broken = [], []
        if min_ratio is not None:
            bounds.append(f"min {float(min_ratio)}x")
            if ratio < float(min_ratio):
                broken.append(f"below required {float(min_ratio)}x")
        if max_ratio is not None:
            bounds.append(f"max {float(max_ratio)}x")
            if ratio > float(max_ratio):
                broken.append(f"above allowed {float(max_ratio)}x")
        verdict = "FAIL" if broken else "ok"
        print(f"{verdict:>4}  ratio {slower} / {faster}: {ratio:.2f}x "
              f"({', '.join(bounds)})")
        for b in broken:
            failures.append(f"ratio {slower} / {faster}: {ratio:.2f}x {b}")

    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if failures:
        print()
        for f in failures:
            print(f"regression: {f}", file=sys.stderr)
        return 1
    ratios = config.get("ratios", [])
    print(f"\nall {len(floors)} floors hold (factor {factor}x)"
          + (f", all {len(ratios)} ratios hold" if ratios else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
