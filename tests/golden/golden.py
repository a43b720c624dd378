#!/usr/bin/env python3
"""Absolute goldens for the bench harness output.

Each case is one bench invocation at a short horizon; its --csv stdout
is committed as tests/golden/<case>.out and must come back byte for
byte at any --jobs value.

  golden.py check <case> <bench-binary> <jobs>   # one ctest Golden.*
  golden.py metrics <case> <bench-binary>        # Golden.<case>.metrics
  golden.py regen <bench-dir>                    # rewrite every golden

`metrics` reruns a case with --metrics at --jobs 1 and 3, and with
--metrics --profile at --jobs 1. Dropping the one `wrote metrics to`
line, each stdout must still be the golden, so observability changes no
output; the metrics must hold sched.decisions > 0 and the same sched.*
counts in all three runs.

Regenerate only when a change is meant to move the figures, and say
why in CHANGES.md.
"""
import difflib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

CASES = {
    "fig1_example": ["bench_fig1_example"],
    "theorem1_slotted": ["bench_theorem1_slotted", "--slots", "3000"],
    # Seed 7 over 3000 slots holds a drop-decisions window (refreshes
    # with no decide) and two port blackouts (masked repacks).
    "theorem1_slotted_faults": ["bench_theorem1_slotted", "--slots", "3000",
                                "--fault-plan=random", "--fault-seed", "7"],
    "fig5_stability": ["bench_fig5_stability", "--horizon", "0.3"],
    "fig2_motivation": ["bench_fig2_motivation", "--horizon", "0.3"],
    "fig6_loads": ["bench_fig6_loads", "--horizon", "0.3"],
    "table1_fct": ["bench_table1_fct", "--horizon", "0.3"],
    "ablation_routing": ["bench_ablation_routing", "--horizon", "0.3"],
    "ablation_batching": ["bench_ablation_batching", "--horizon", "0.3"],
    "fault_resilience": ["bench_fault_resilience", "--horizon", "0.3"],
}


def run(binary, case, jobs, extra=()):
    cmd = [binary] + CASES[case][1:] + ["--csv", "--jobs", str(jobs)]
    return subprocess.run(cmd + list(extra), check=True,
                          stdout=subprocess.PIPE).stdout


def golden_path(case):
    return os.path.join(HERE, case + ".out")


def matches_golden(case, got, label):
    with open(golden_path(case), "rb") as f:
        want = f.read()
    if got == want:
        print(f"{label}: byte-identical to its golden")
        return True
    diff = difflib.unified_diff(
        want.decode().splitlines(keepends=True),
        got.decode().splitlines(keepends=True),
        fromfile=f"golden/{case}.out", tofile=label)
    sys.stdout.writelines(diff)
    return False


def check(case, binary, jobs):
    ok = matches_golden(case, run(binary, case, jobs), f"{case} --jobs {jobs}")
    return 0 if ok else 1


def sched_counts(metrics):
    """The run-to-run deterministic part of the decide-site metrics."""
    counts = {name: metrics["counters"][name]
              for name in ("sched.decisions", "sched.preemptions")}
    for name in ("sched.candidates", "sched.matching_size"):
        h = metrics["histograms"][name]
        counts[name] = (h["count"], h["sum"], h["min"], h["max"])
    counts["sched.decision_ns samples"] = (
        metrics["histograms"]["sched.decision_ns"]["count"])
    return counts


def check_metrics(case, binary):
    ok = True
    seen = None
    with tempfile.TemporaryDirectory() as tmp:
        for jobs, extra in ((1, []), (3, []), (1, ["--profile"])):
            label = " ".join([case, "--jobs", str(jobs), "--metrics"] + extra)
            path = os.path.join(tmp, f"jobs{jobs}{len(extra)}.json")
            got = run(binary, case, jobs, ["--metrics", path] + extra)
            wrote = f"wrote metrics to {path}\n".encode()
            if got.count(wrote) != 1:
                print(f"{label}: expected one `wrote metrics to` line")
                ok = False
                continue
            ok &= matches_golden(case, got.replace(wrote, b""), label)
            with open(path) as f:
                counts = sched_counts(json.load(f))
            if counts["sched.decisions"] <= 0:
                print(f"{label}: sched.decisions is not positive")
                ok = False
            if counts["sched.decision_ns samples"] != counts["sched.decisions"]:
                print(f"{label}: sched.decision_ns samples != decisions")
                ok = False
            if seen is not None and counts != seen:
                print(f"{label}: sched.* counts differ: {counts} vs {seen}")
                ok = False
            seen = counts
    return 0 if ok else 1


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
    if len(argv) == 4 and argv[1] == "metrics" and argv[2] in CASES:
        return check_metrics(argv[2], argv[3])
    if len(argv) == 3 and argv[1] == "regen":
        return regen(argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
