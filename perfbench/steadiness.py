#!/usr/bin/env python3
"""Steadiness report: run one workload k times and summarise each metric.

    python3 perfbench/steadiness.py --workload temporal_joins -k 10 \
        [--out FILE]

Run from the repository root.  Seeds are 1 .. k, each run --trace 0 with
--seconds set to BENCHMARK.json's run_seconds, as a regression check runs
them.  For every metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and, for
end-to-end metrics, the bound from BENCHMARK.json and whether the spread
sits below a third of it.  Host-noise diagnostics and the wall time of each
run are listed after the table.  --out also writes the report to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {}
    diagnostics = []
    run_s = []
    for seed in range(1, args.k + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        start = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True).stdout.strip().splitlines()
        run_s.append(time.monotonic() - start)
        result = json.loads(out[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: %d of %d statements failed"
                     % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        diagnostics.append(json.loads(out[-2])["diagnostics"])

    lines = ["steadiness: %s, %d runs, seeds 1..%d, --seconds %d, --trace 0"
             % (args.workload, args.k, args.k, seconds),
             "%-40s %14s %14s %14s %8s %6s" %
             ("metric", "median", "q1", "q3", "spread", "bound")]
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "%6.3f %s" % (bound, "ok" if spread < bound / 3 else
                                    ("WIDE" if spread >= bound else "near"))
        lines.append("%-40s %14.6g %14.6g %14.6g %8.4f %s"
                     % (name, med, q1, q3, spread, verdict))
    lines.append("host noise per run (steal ticks, loadavg, server cs), "
                 "measured window and whole run:")
    for d, s in zip(diagnostics, run_s):
        lines.append("  seed %-4d steal %-5d load %-5.2f vol_cs %-8d "
                     "invol_cs %-6d window_s %.3f run_s %.1f"
                     % (d["seed"], d["steal_ticks"], d["loadavg_1m"],
                        d["server_voluntary_cs"], d["server_involuntary_cs"],
                        d["window_s"], s))
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
