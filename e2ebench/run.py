#!/usr/bin/env python3
"""Builds the e2ebench harness from the repository sources and runs one
workload in one process.

    python3 e2ebench/run.py --workload paper144 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else to .bench_build/ at the root; the first run configures and
compiles (about a minute on four cores), later runs only check that the
tree is up to date. The harness's stdout is passed through: its last line
is the JSON result, and its exit code is this script's (non-zero when a
correctness check failed). With --trace 1 the recorded spans are written
to the build directory.

--all runs every workload in turn (same seed, seconds and trace flag) and
exits non-zero if any of them failed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper144", "slotted32-srpt", "serve24"]
# A run measures --seconds plus at most one unit and its set-up; this
# bounds a wedged harness well inside a run's time limit.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(out_dir):
    """Configures (once) and builds the harness; build logs go to stderr."""
    steps = []
    # The build system is generated only by a configure that succeeded.
    if not any(os.path.exists(os.path.join(out_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "e2ebench",
                  "-j", str(jobs())])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("e2ebench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(out_dir, "e2ebench")


def run_one(binary, out_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-seed%d.json" % (workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: %s timed out\n" % workload)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    codes = [run_one(binary, out_dir, w, args)
             for w in (WORKLOADS if args.all else [args.workload])]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
