#!/usr/bin/env python3
"""Absolute goldens for the bench harness output.

Each case is one bench invocation at a short horizon; its --csv stdout
is committed as tests/golden/<case>.out and must come back byte for
byte at any --jobs value.

  golden.py check <case> <bench-binary> <jobs>   # one ctest Golden.*
  golden.py regen <bench-dir>                    # rewrite every golden

Regenerate only when a change is meant to move the figures, and say
why in CHANGES.md.
"""
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CASES = {
    "fig1_example": ["bench_fig1_example"],
    "theorem1_slotted": ["bench_theorem1_slotted", "--slots", "3000"],
    "fig5_stability": ["bench_fig5_stability", "--horizon", "0.3"],
    "fig2_motivation": ["bench_fig2_motivation", "--horizon", "0.3"],
    "fig6_loads": ["bench_fig6_loads", "--horizon", "0.3"],
    "table1_fct": ["bench_table1_fct", "--horizon", "0.3"],
    "ablation_routing": ["bench_ablation_routing", "--horizon", "0.3"],
    "ablation_batching": ["bench_ablation_batching", "--horizon", "0.3"],
    "fault_resilience": ["bench_fault_resilience", "--horizon", "0.3"],
}


def run(binary, case, jobs):
    cmd = [binary] + CASES[case][1:] + ["--csv", "--jobs", str(jobs)]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout


def golden_path(case):
    return os.path.join(HERE, case + ".out")


def check(case, binary, jobs):
    got = run(binary, case, jobs)
    with open(golden_path(case), "rb") as f:
        want = f.read()
    if got == want:
        print(f"{case} --jobs {jobs}: byte-identical to its golden")
        return 0
    diff = difflib.unified_diff(
        want.decode().splitlines(keepends=True),
        got.decode().splitlines(keepends=True),
        fromfile=f"golden/{case}.out", tofile=f"{case} --jobs {jobs}")
    sys.stdout.writelines(diff)
    return 1


def regen(bench_dir):
    for case, argv in CASES.items():
        out = run(os.path.join(bench_dir, argv[0]), case, 1)
        with open(golden_path(case), "wb") as f:
            f.write(out)
        print(f"wrote {golden_path(case)} ({len(out)} bytes)")
    return 0


def main(argv):
    if len(argv) == 5 and argv[1] == "check" and argv[2] in CASES:
        return check(argv[2], argv[3], int(argv[4]))
    if len(argv) == 3 and argv[1] == "regen":
        return regen(argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
