#!/usr/bin/env python3
"""Build the tsm library and the tsm_bench program from source, then run
one workload.

    python3 tsmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 tsmbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/tsmbench (default .bench_build/tsmbench
under the repository root); the first run configures and compiles it, later
runs only re-check it. Build output goes to stderr. tsm_bench's stdout is
passed through, and its last line is the JSON result. The exit code is
tsm_bench's: 0 only when every output check passed. Without the library
sources next to this directory the build cannot happen, and the script
exits with code 2 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "tsmbench")


def build(out):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("tsmbench: library sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tsm_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("tsmbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "tsm_bench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except (ValueError, TypeError):
        well_formed = False
    if not well_formed:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("tsmbench: tsm_bench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
