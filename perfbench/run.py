#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload apps_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads: apps_mix, hot_batched, cold_rw (see perfbench/README.md). With
--trace 0 the result carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a run with the tracing decorators installed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory, and so do telemetry snapshots and span files. The last line of
standard output is the result as one JSON object: {"correct", "attempted",
"failed", "metrics"}. Any failure exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("apps_mix", "hot_batched", "cold_rw")
RUN_LIMIT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, logfile, timeout):
    with open(logfile, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(logfile) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
    return proc.returncode == 0


def build(bdir):
    """Configures and builds the perfbench target; runs the self-test once
    per fresh binary. Returns the binary path or None."""
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", bdir],
                          os.path.join(bdir, "configure.log"), 300):
            log("configure failed")
            return None
    if not run_logged(["cmake", "--build", bdir, "--target", "perfbench", "-j4"],
                      os.path.join(bdir, "build.log"), 800):
        log("build failed")
        return None
    binary = os.path.join(bdir, "perfbench")
    stamp = os.path.join(bdir, "self-test.ok")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(binary)):
        if not run_logged([binary, "--self-test"],
                          os.path.join(bdir, "self-test.log"), 120):
            log("self-test failed")
            return None
        with open(stamp, "w") as f:
            f.write("ok\n")
    return binary


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build, then check that inputs are a function of the seed")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    started = time.monotonic()
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build: {e}")
        return 1
    if binary is None:
        return 1
    if args.self_test:
        with open(os.path.join(bdir, "self-test.log")) as f:
            sys.stdout.write(f.read())
        return 0

    out_dir = os.path.join(bdir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        budget = max(RUN_LIMIT_S - (time.monotonic() - started), 60)
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run: {e}")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return 1
    try:
        result = check_result(lines[-1])
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result line ({e}): {lines[-1]!r}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
