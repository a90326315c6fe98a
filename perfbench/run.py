#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_driver from the sources
in the checkout (CMake, into .bench_build/), runs the named workload for S
seconds and passes perfbench_driver's output through; its last stdout line is the
JSON result. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones. Every mined itemset collection is checked against an
FP-Growth reference; a mismatch exits non-zero without a result.

Workloads, metrics and bounds are listed in BENCHMARK.json; steady.py runs
this script over many seeds and reports how steady each metric is.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# A whole run, build included, must end within 180 s; the run that first
# builds the driver in a checkout may take 900 s. The driver gets what is
# left of that after the build, less a margin for clean-up.
RUN_LIMIT_S = 180
FIRST_RUN_LIMIT_S = 900
MARGIN_S = 10


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_driver (both no-ops when up to date); build
    output goes to stderr so the result stays the last stdout line."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, cwd=ROOT)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"],
            check=True, stdout=sys.stderr, cwd=ROOT)


def driver_env(work_dir):
    # The program reads GPAPRIORI_* variables (threads, tracing, deadlines,
    # kernel switches); the benchmark fixes all of those itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPAPRIORI_")}
    env["TMPDIR"] = work_dir
    return env


def stop_on_sigterm(signum, frame):
    # Raising inside subprocess.run makes it kill and reap perfbench_driver.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    limit = RUN_LIMIT_S if os.path.exists(DRIVER) else FIRST_RUN_LIMIT_S
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    timeout = limit - MARGIN_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, env=driver_env(work_dir), cwd=ROOT,
                              timeout=max(timeout, 1))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"driver exceeded its {timeout:.0f} s (run limit {limit} s) "
            "and was killed")
        code = 124
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        log(f"driver exited {code} after {time.monotonic() - start:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
