#!/usr/bin/env python3
"""One benchmark run of itdb_serve (see perfbench/README.md).

    python3 perfbench/run.py --workload point_lookups --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Builds itdb_serve and the itdb_perf driver
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build),
then runs itdb_perf in a fresh directory under it, removed afterwards.  The
last line of stdout is the result object; a failed build or run exits
non-zero without printing one.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j3"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--statements", type=int, default=0,
                        help="override the statement count (smoke tests)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 1

    run_dir = os.path.join(build_dir, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "itdb_perf"),
           "--serve", os.path.join(build_dir, "itdb_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.statements > 0:
        cmd += ["--statements", str(args.statements)]
    # Its own session, so a timeout can stop the driver and its server.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:  # Anything of the run's still alive (normally nothing).
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: itdb_perf exited %d\n" % proc.returncode)
        return 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
