#!/usr/bin/env python3
"""Perf-regression gate over basrpt-bench-v1 records.

Compares a fresh BENCH_<name>.json against the committed baseline with
per-metric-class tolerances and exits non-zero on regression. This is
the repo's one perf gate: `--self-test` pins its rules, one named check
per rule, each run as a `Gate.<check>` ctest. docs/PERF.md pins the
metric naming convention the direction is inferred from:

    *_per_sec                    higher is better   (throughput tol)
    ns_* / *_ns*                 lower is better    (latency tol)
    *p99* / *p999* / *p9999*     lower is better    (tail tol, looser)
    *alloc*                      lower is better    (absolute corridor)
    anything else                informational, never gated

Usage:
    perf_gate.py --baseline BENCH_sched_micro.json --fresh fresh.json
    perf_gate.py --self-test [CHECK]      # all gate-rule checks, or one
    perf_gate.py ... --warn-only          # report, exit 0 (shared runners)
    perf_gate.py ... --trajectory-dir bench/trajectory

--trajectory-dir appends one JSONL line per gated run (commit, verdict,
per-case metrics) so the perf history of the repo accumulates next to
the code. stdlib only; python3 is the only dependency.
"""

import argparse
import json
import os
import socket
import sys
import time


THROUGHPUT_TOL = 0.10  # *_per_sec may drop up to 10%
LATENCY_TOL = 0.30     # p50/mean ns may grow up to 30%
TAIL_TOL = 0.60        # p99/p999 ns may grow up to 60%
ALLOC_ABS = 0.5        # allocs/op may grow by < 0.5 absolute


def is_tail_metric(name):
    return "p99" in name or "p999" in name or "p9999" in name


def is_alloc_metric(name):
    return "alloc" in name


def metric_direction(name):
    """'higher', 'lower', or None (informational)."""
    if name.endswith("_per_sec"):
        return "higher"
    if is_alloc_metric(name):
        return "lower"
    if name.startswith("ns_") or "_ns" in name:
        return "lower"
    return None


def load_record(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: record must be a JSON object")
    if doc.get("schema") != "basrpt-bench-v1":
        raise ValueError(
            f"{path}: schema is {doc.get('schema')!r}, want 'basrpt-bench-v1'")
    for field in ("name", "cases"):
        if field not in doc:
            raise ValueError(f"{path}: missing required field {field!r}")
    labels = [c.get("label") for c in doc["cases"]]
    dupes = {l for l in labels if labels.count(l) > 1}
    if dupes:
        raise ValueError(f"{path}: duplicate case labels {sorted(dupes)}")
    return doc


def compare(baseline, fresh, tols, skip_ns=False):
    """Returns (regressions, missing_cases, notes)."""
    regressions = []
    missing = []
    notes = []
    if baseline["name"] != fresh["name"]:
        notes.append("record name mismatch: baseline %r vs fresh %r"
                     % (baseline["name"], fresh["name"]))
    if baseline.get("host") != fresh.get("host") or \
       baseline.get("cpu") != fresh.get("cpu"):
        notes.append("host fingerprint differs from the baseline's; "
                     "absolute comparisons are cross-machine")

    fresh_cases = {c["label"]: c for c in fresh["cases"]}
    for base_case in baseline["cases"]:
        label = base_case["label"]
        fresh_case = fresh_cases.get(label)
        if fresh_case is None:
            missing.append(label)
            continue
        fresh_metrics = dict(fresh_case.get("metrics", {}))
        for metric, base_value in base_case.get("metrics", {}).items():
            direction = metric_direction(metric)
            if direction is None:
                continue
            if metric not in fresh_metrics:
                notes.append("case %r: fresh record lacks gated metric %r"
                             % (label, metric))
                continue
            fresh_value = fresh_metrics[metric]
            if skip_ns and direction == "lower" and \
                    not is_alloc_metric(metric):
                continue
            if direction == "higher":
                limit = base_value * (1.0 - tols["throughput"])
                regressed = fresh_value < limit
            elif is_alloc_metric(metric):
                limit = base_value + tols["alloc_abs"]
                regressed = fresh_value > limit
            else:
                frac = tols["tail"] if is_tail_metric(metric) else \
                    tols["latency"]
                limit = base_value * (1.0 + frac)
                regressed = fresh_value > limit
            if regressed:
                regressions.append({
                    "case": label, "metric": metric,
                    "baseline": base_value, "fresh": fresh_value,
                    "limit": limit,
                })
    base_labels = {c["label"] for c in baseline["cases"]}
    for label in fresh_cases:
        if label not in base_labels:
            notes.append("new case %r has no baseline yet" % label)
    return regressions, missing, notes


def append_trajectory(directory, fresh, regressions, missing, ok):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, fresh["name"] + ".jsonl")
    entry = {
        "t": int(time.time()),
        "commit": fresh.get("commit", "unknown"),
        "host": fresh.get("host", socket.gethostname()),
        "ok": ok,
        "regressions": len(regressions),
        "missing_cases": missing,
        "cases": {
            c["label"]: c.get("metrics", {}) for c in fresh["cases"]
        },
    }
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def run_gate(args):
    tols = {
        "throughput": args.tol_throughput,
        "latency": args.tol_latency,
        "tail": args.tol_tail,
        "alloc_abs": args.tol_alloc_abs,
    }
    try:
        baseline = load_record(args.baseline)
        fresh = load_record(args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"perf_gate: error: {e}", file=sys.stderr)
        return 2

    regressions, missing, notes = compare(baseline, fresh, tols,
                                          skip_ns=args.skip_ns_metrics)
    for r in regressions:
        print("REGRESSION %s %s: baseline %.6g -> fresh %.6g (limit %.6g)"
              % (r["case"], r["metric"], r["baseline"], r["fresh"],
                 r["limit"]))
    for label in missing:
        print("MISSING case %r (present in baseline)" % label)
    for note in notes:
        print("note:", note)

    ok = not regressions and not missing
    if args.trajectory_dir:
        path = append_trajectory(args.trajectory_dir, fresh, regressions,
                                 missing, ok)
        print("trajectory: appended to", path)

    if ok:
        print("gate: ok (%d cases)" % len(baseline["cases"]))
        return 0
    if args.warn_only:
        print("gate: FAILED, but --warn-only is set (CI hard-fails "
              "unless BASRPT_PERF_STRICT=0)")
        return 0
    print("gate: FAILED")
    return 1


def self_test(only=None):
    """Checks the direction rules, then synthesizes a baseline and gates
    fresh records against it: regressions that must fail, within-tolerance
    runs that must pass, and dropped or new cases. Each named check is
    one gate rule; `only` runs just that one."""
    base = {
        "schema": "basrpt-bench-v1", "name": "selftest",
        "host": "h", "cpu": "c",
        "cases": [{
            "label": "decide/srpt/ports=144",
            "metrics": {
                "decisions_per_sec": 1.0e6,
                "ns_p50": 900.0,
                "ns_p99": 2000.0,
                "allocs_per_decision": 0.0,
                "rep_spread_frac": 0.03,
            },
        }],
    }
    tols = {"throughput": THROUGHPUT_TOL, "latency": LATENCY_TOL,
            "tail": TAIL_TOL, "alloc_abs": ALLOC_ABS}

    def clone_with(**metrics):
        fresh = json.loads(json.dumps(base))
        fresh["cases"][0]["metrics"].update(metrics)
        return fresh

    def metric_direction_inference(failures):
        for name, want in (("decisions_per_sec", "higher"),
                           ("ns_p50", "lower"), ("total_ns", "lower"),
                           ("allocs_per_decision", "lower"),
                           ("rep_spread_frac", None),
                           ("coverage_frac", None)):
            got = metric_direction(name)
            if got != want:
                failures.append("direction of %r is %r, want %r"
                                % (name, got, want))
        if not is_tail_metric("ns_p999") or is_tail_metric("ns_p50"):
            failures.append("tail-metric detection is wrong")

    def injected_twenty_percent_regression_fails(failures):
        # Tolerance is 10%: the drop is the one regression, against a
        # limit of 90% of the baseline.
        r, m, _ = compare(base, clone_with(decisions_per_sec=0.8e6), tols)
        if [(x["metric"], x["limit"]) for x in r] != [("decisions_per_sec",
                                                       0.9e6)] or m:
            failures.append("20%% throughput drop was not flagged alone: %r"
                            % (r + m))

    def within_tolerance_passes(failures):
        # -5% throughput, +10% p50, +30% p99 (60% tail tolerance).
        r, m, _ = compare(
            base, clone_with(decisions_per_sec=0.95e6, ns_p50=990.0,
                             ns_p99=2600.0), tols)
        if r or m:
            failures.append("within-tolerance run was flagged: %r" % (r + m))
        # Informational metrics are never gated.
        r, m, _ = compare(base, clone_with(rep_spread_frac=10.0), tols)
        if r or m:
            failures.append("informational metric was gated: %r" % (r + m))

    def alloc_corridor_is_absolute(failures):
        # 0 -> 1 alloc/op is tiny in relative terms but breaks the
        # zero-alloc contract; a rise of 0.3 stays inside the corridor.
        r, _, _ = compare(base, clone_with(allocs_per_decision=1.0), tols)
        if not r:
            failures.append("new steady-state allocation was not flagged")
        r, m, _ = compare(base, clone_with(allocs_per_decision=0.3), tols)
        if r or m:
            failures.append("alloc rise of 0.3 was flagged: %r" % (r + m))

    def tail_tolerance_is_looser_than_latency_tolerance(failures):
        # +40% p50 fails (30% latency tolerance), +50% p99 passes (60%
        # tail tolerance), +70% p99 fails.
        r, _, _ = compare(base, clone_with(ns_p50=1260.0), tols)
        if not r:
            failures.append("+40% p50 was not flagged")
        r, _, _ = compare(base, clone_with(ns_p99=3000.0), tols)
        if r:
            failures.append("+50% p99 was flagged despite 60% tail tolerance")
        r, _, _ = compare(base, clone_with(ns_p99=3400.0), tols)
        if not r:
            failures.append("+70% p99 was not flagged")

    def missing_case_fails_and_new_case_is_noted(failures):
        # A relabelled case: the baseline's label is missing (fails), the
        # fresh label is noted as new.
        fresh = json.loads(json.dumps(base))
        fresh["cases"][0]["label"] = "decide/srpt/ports=288"
        _, m, notes = compare(base, fresh, tols)
        if m != ["decide/srpt/ports=144"]:
            failures.append("dropped case was not flagged: %r" % m)
        if not any("new case" in n for n in notes):
            failures.append("new case was not noted")
        # A new case next to the baseline's is noted, not failed.
        fresh = json.loads(json.dumps(base))
        new_case = json.loads(json.dumps(base["cases"][0]))
        new_case["label"] = "decide/srpt/ports=288"
        fresh["cases"].append(new_case)
        r, m, notes = compare(base, fresh, tols)
        if r or m:
            failures.append("new case was failed: %r" % (r + m))
        if not any("new case" in n for n in notes):
            failures.append("new case was not noted")

    def skip_ns_metrics_keeps_throughput_and_alloc_gates(failures):
        r, _, _ = compare(base, clone_with(ns_p99=9000.0, ns_mean=9000.0),
                          tols, skip_ns=True)
        if r:
            failures.append("skip_ns still gated an ns metric")
        r, _, _ = compare(base, clone_with(decisions_per_sec=700000.0),
                          tols, skip_ns=True)
        if not r:
            failures.append("skip_ns dropped the throughput gate")
        r, _, _ = compare(base, clone_with(allocs_per_decision=1.0),
                          tols, skip_ns=True)
        if not r:
            failures.append("skip_ns dropped the alloc gate")

    checks = {
        "MetricDirectionInference": metric_direction_inference,
        "InjectedTwentyPercentRegressionFails":
            injected_twenty_percent_regression_fails,
        "WithinTolerancePasses": within_tolerance_passes,
        "AllocCorridorIsAbsolute": alloc_corridor_is_absolute,
        "TailToleranceIsLooserThanLatencyTolerance":
            tail_tolerance_is_looser_than_latency_tolerance,
        "MissingCaseFailsAndNewCaseIsNoted":
            missing_case_fails_and_new_case_is_noted,
        "SkipNsMetricsKeepsThroughputAndAllocGates":
            skip_ns_metrics_keeps_throughput_and_alloc_gates,
    }
    if only is not None and only not in checks:
        print("self-test: unknown check %r (have: %s)"
              % (only, ", ".join(checks)), file=sys.stderr)
        return 2

    failures = []
    for name, check in checks.items():
        if only is None or name == only:
            before = len(failures)
            check(failures)
            for f in failures[before:]:
                print("self-test FAILED: %s: %s" % (name, f), file=sys.stderr)
    if not failures:
        print("self-test: ok (%s)" % (only or "%d checks" % len(checks)))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", help="committed BENCH_<name>.json")
    p.add_argument("--fresh", help="freshly generated record to gate")
    p.add_argument("--warn-only", action="store_true",
                   help="report regressions but exit 0 (shared runners)")
    p.add_argument("--trajectory-dir",
                   help="append a JSONL history line here")
    p.add_argument("--skip-ns-metrics", action="store_true",
                   help="gate throughput and allocation metrics only; "
                        "per-op ns metrics are skipped (for reduced-budget "
                        "runs where timings are preemption-dominated)")
    p.add_argument("--tol-throughput", type=float, default=THROUGHPUT_TOL)
    p.add_argument("--tol-latency", type=float, default=LATENCY_TOL)
    p.add_argument("--tol-tail", type=float, default=TAIL_TOL)
    p.add_argument("--tol-alloc-abs", type=float, default=ALLOC_ABS)
    p.add_argument("--self-test", nargs="?", const="", metavar="CHECK",
                   help="verify the comparator on synthetic records "
                        "(every check, or just the named one)")
    args = p.parse_args()

    if args.self_test is not None:
        sys.exit(self_test(args.self_test or None))
    if not args.baseline or not args.fresh:
        p.error("--baseline and --fresh are required (or --self-test)")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
