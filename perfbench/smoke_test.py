#!/usr/bin/env python3
"""Smoke test of the benchmark driver: a tiny run of every workload.

    python3 perfbench/smoke_test.py

Run from the repository root (it builds like run.py does).  For each
workload itdb_perf knows, with a tiny seed and a few statements, it runs
--trace 0 and --trace 1 and checks the result line's shape: exactly the
keys correct/attempted/failed/metrics, every end-to-end (or per-layer)
metric of BENCHMARK.json with its unit and a numeric value, correct true,
and failed_frac 0 -- no statement answered error/retry or a wrong frame.
Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STATEMENTS = {"point_lookups": 96, "temporal_joins": 24, "durable_churn": 96}


def check(workload, trace, bench):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--statements", str(STATEMENTS[workload])]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                           text=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    where = "%s --trace %d" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, where
    assert diagnostics["failed_frac"] == 0, where
    expected = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, where
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}, (where, m["name"])
        assert got["unit"] == m["unit"], (where, m["name"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])
    print("ok  %-15s trace=%d  attempted=%d" %
          (workload, trace, result["attempted"]))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Every workload itdb_perf knows, durable_churn included, although
    # BENCHMARK.json leaves it out (README.md says why).
    for workload in STATEMENTS:
        for trace in (0, 1):
            check(workload, trace, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
