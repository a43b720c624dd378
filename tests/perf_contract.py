#!/usr/bin/env python3
"""Writer-to-reader contract for the two perf documents.

C++ only writes basrpt-bench-v1 records and basrpt-profile-v1
breakdowns; scripts/perf_gate.py is the one reader. This runs the real
writers at a tiny budget and reads their output the way the repo does:

    perf_contract.py <bench_sched_micro> <bench_fig1_example>

  * bench_sched_micro --perf-out must load through perf_gate.load_record
    (schema tag, required fields, unique labels) with every metric a
    number;
  * bench_fig1_example --profile-out must be JSON with the
    basrpt-profile-v1 tag and a non-empty `phases` object.

Exits non-zero, naming the broken half, on any violation.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))
import perf_gate  # noqa: E402


def check_record(bench, tmp):
    path = os.path.join(tmp, "sched_micro.json")
    subprocess.run([bench, "--perf-out=" + path, "--scheduler=srpt",
                    "--warmup=1", "--reps=1"],
                   check=True, cwd=tmp, stdout=subprocess.DEVNULL)
    record = perf_gate.load_record(path)
    if not record["cases"]:
        return "record has no cases"
    for case in record["cases"]:
        for name, value in case["metrics"].items():
            if not isinstance(value, (int, float)):
                return "metric %r of %r is not a number" % (name,
                                                            case["label"])
    return None


def check_profile(bench, tmp):
    path = os.path.join(tmp, "fig1.profile.json")
    subprocess.run([bench, "--profile", "--profile-out=" + path],
                   check=True, cwd=tmp, stdout=subprocess.DEVNULL)
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "basrpt-profile-v1":
        return "profile schema is %r" % doc.get("schema")
    if not isinstance(doc.get("phases"), dict) or not doc["phases"]:
        return "profile has no phases"
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for what, check, bench in (("record", check_record, sys.argv[1]),
                                   ("profile", check_profile, sys.argv[2])):
            error = check(bench, tmp)
            if error is not None:
                print("contract FAILED: %s: %s" % (what, error),
                      file=sys.stderr)
                failed = True
    if not failed:
        print("contract: ok (record and profile)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
