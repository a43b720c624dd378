#!/usr/bin/env bash
# CI entry point: tier-1 (warnings-as-errors build + full test suite +
# the e2ebench harness build and its tests), then tier-2
# (AddressSanitizer + UBSan build + full test suite, fault soak,
# --paranoid certified-rate differential, kill-and-resume soak, and a
# ThreadSanitizer parallel-sweep determinism check).
#
#   scripts/ci.sh            # all stages
#   scripts/ci.sh --tier1    # build + ctest + e2ebench harness tests
#   scripts/ci.sh --tier2    # sanitizer build + ctest only
#   scripts/ci.sh --soak     # serving soak only (overload + drain)
#   scripts/ci.sh --perf     # perf stage only (bench + regression gate)
#
# The perf stage regenerates small BENCH_*.json records and gates them
# against the committed baselines with scripts/perf_gate.py. A
# regression fails the build by default; set BASRPT_PERF_STRICT=0 on a
# noisy shared runner to downgrade it to a warning (docs/PERF.md).
#
# Build trees: build-ci/ and build-e2ebench/ (tier 1) and build-asan/
# (tier 2), kept apart from a developer's build/ so CI never clobbers
# local state.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TIER1=1
RUN_TIER2=1
RUN_SOAK=1
RUN_PERF=1
case "${1:-}" in
  --tier1) RUN_TIER2=0; RUN_SOAK=0; RUN_PERF=0 ;;
  --tier2) RUN_TIER1=0; RUN_SOAK=0; RUN_PERF=0 ;;
  --soak)  RUN_TIER1=0; RUN_TIER2=0; RUN_PERF=0 ;;
  --perf)  RUN_TIER1=0; RUN_TIER2=0; RUN_SOAK=0 ;;
  "") ;;
  *) echo "usage: $0 [--tier1|--tier2|--soak|--perf]" >&2; exit 2 ;;
esac

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "==== tier 1: RelWithDebInfo + -Werror + ctest ===="
  cmake -B build-ci -DBASRPT_WERROR=ON >/dev/null
  cmake --build build-ci -j "$JOBS"
  ctest --test-dir build-ci --output-on-failure -j "$JOBS"

  # The end-to-end benchmark compiles ../src on its own (e2ebench/
  # CMakeLists.txt), so a src/ change can break its build without any
  # ctest noticing. Build the harness tree and run its tests.
  echo "==== tier 1: e2ebench harness build + e2ebench_tests ===="
  cmake -S e2ebench -B build-e2ebench >/dev/null
  cmake --build build-e2ebench -j "$JOBS" --target e2ebench e2ebench_tests
  ./build-e2ebench/e2ebench_tests
fi

if [[ "$RUN_TIER2" == 1 ]]; then
  echo "==== tier 2: ASan/UBSan + ctest ===="
  cmake -B build-asan -DBASRPT_SANITIZE=ON -DBASRPT_WERROR=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  # Fault-injection soak: the resilience harness exercises the injector,
  # port masking, re-arrival rebirth, and the stall watchdog across two
  # schedulers end to end — exactly the churny code paths sanitizers are
  # good at catching. Short horizon keeps it a soak, not a benchmark.
  echo "==== tier 2: fault-injection soak (ASan/UBSan) ===="
  ./build-asan/bench/bench_fault_resilience --horizon 0.5 --watchdog 120
  ./build-asan/bench/bench_fig5_stability \
      --horizon 0.4 --fault-plan=random --fault-seed 7 --watchdog 120

  # Certified-rate differential over whole figure runs: --paranoid
  # re-solves every single-round-certified serving set with route_into +
  # MaxMinSolver and aborts on any bitwise difference, and the CSV must
  # still match its golden. fig6 runs fluid spray, the certified case;
  # ablation_routing adds ECMP, where collisions take the fallback.
  echo "==== tier 2: certified-rate differential (ASan/UBSan, --paranoid) ===="
  for case in fig6_loads ablation_routing; do
    ./build-asan/bench/bench_$case --horizon 0.3 --paranoid --csv \
        | diff "tests/golden/$case.out" - \
        || { echo "paranoid: $case diverges from its golden" >&2; exit 1; }
    echo "paranoid: $case rates and CSV bit-identical"
  done

  # Kill-and-resume soak: SIGKILL a checkpointing bench the moment its
  # first checkpoint lands, resume from the newest file, and require the
  # final CSV to be byte-identical to an uninterrupted reference run.
  # SIGKILL (not SIGINT) is the honest crash model — no handler runs, so
  # only the already-fsynced checkpoint can save the run. Covers both
  # checkpoint kinds: fig5 stores finished experiment cells; theorem1
  # also snapshots genuine mid-run slotted state.
  echo "==== tier 2: kill-and-resume soak (ASan/UBSan) ===="
  CKPT_TMP="$(mktemp -d)"
  trap 'rm -rf "$CKPT_TMP"' EXIT

  kill_and_resume() {
    local name="$1"; shift
    local cadence="$1"; shift  # cells for experiment benches, slots for slotted
    local bin="$1"; shift
    local dir="$CKPT_TMP/$name"
    mkdir -p "$dir"

    "$bin" "$@" --csv > "$CKPT_TMP/$name.ref.csv"

    "$bin" "$@" --csv --checkpoint-dir "$dir" --checkpoint-every "$cadence" \
        > "$CKPT_TMP/$name.partial.csv" 2> "$CKPT_TMP/$name.partial.err" &
    local pid=$!
    # Kill as soon as the first checkpoint is durable; if the run beats
    # us to the finish line, resume degenerates to replay-everything,
    # which must produce the same bytes anyway.
    for _ in $(seq 1 600); do
      compgen -G "$dir/*.ckpt" > /dev/null && break
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    if ! compgen -G "$dir/*.ckpt" > /dev/null; then
      echo "kill-and-resume($name): no checkpoint was written" >&2
      exit 1
    fi

    "$bin" "$@" --csv --checkpoint-dir "$dir" --resume latest \
        > "$CKPT_TMP/$name.resumed.csv"
    diff "$CKPT_TMP/$name.ref.csv" "$CKPT_TMP/$name.resumed.csv" \
        || { echo "kill-and-resume($name): resumed CSV diverges" >&2; exit 1; }
    echo "kill-and-resume($name): resumed CSV byte-identical"
  }

  kill_and_resume fig5 1 ./build-asan/bench/bench_fig5_stability --horizon 0.3
  kill_and_resume theorem1 4000 ./build-asan/bench/bench_theorem1_slotted \
      --slots 60000

  # Parallel-sweep determinism under ThreadSanitizer: run one sweep bench
  # at --jobs 4 in a TSan build (halt on the first race) and require its
  # CSV to be byte-identical to the same binary at --jobs 1. This is the
  # contract of src/exec (docs/PARALLEL.md): any job count, same bytes.
  echo "==== tier 2: parallel sweep under TSan ===="
  cmake -B build-tsan -DBASRPT_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target bench_fig6_loads
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/bench/bench_fig6_loads \
      --horizon 0.3 --csv --jobs 1 > "$CKPT_TMP/fig6.j1.csv"
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/bench/bench_fig6_loads \
      --horizon 0.3 --csv --jobs 4 > "$CKPT_TMP/fig6.j4.csv"
  diff "$CKPT_TMP/fig6.j1.csv" "$CKPT_TMP/fig6.j4.csv" \
      || { echo "tsan sweep: --jobs 4 CSV diverges from --jobs 1" >&2; exit 1; }
  echo "tsan sweep: --jobs 4 CSV byte-identical, no races"
fi

if [[ "$RUN_SOAK" == 1 ]]; then
  # Bounded serving soak (~90 s): drive the basrptd core through the
  # scripted overload ramp (0.6 -> 1.2 -> 0.8 of host-link capacity)
  # with its degraded-link fault window, then SIGTERM a wall-paced
  # replay mid-flight. Asserts clean exits, a well-formed SLO report
  # with non-zero decision p99/p999, real shedding during the overload,
  # and a shed rate that returns to zero before the feed ends
  # (docs/SERVING.md). A second stage drives the same feed over the
  # socket transport: once through the chaos proxy (resets, corruption,
  # stalls, duplicate delivery), and once with the serving process
  # SIGKILLed mid-stream and resumed while the producer reconnects —
  # both must land on a counter line bit-identical to the plain run.
  # Strict by default; set BASRPT_SOAK_STRICT=0 on a heavily loaded
  # shared runner to downgrade a failure to a warning.
  echo "==== soak: serving core under overload + degradation ===="
  cmake -B build-ci >/dev/null
  cmake --build build-ci -j "$JOBS" --target bench_soak
  SOAK_TMP="$(mktemp -d)"
  trap 'rm -rf "${SOAK_TMP:-}" "${CKPT_TMP:-}"' EXIT

  soak_stage() (
    set -e
    # Full-speed pass over the 12 feed-second ramp: overload segment
    # crosses the watermarks, recovery happens in the closing segment.
    ./build-ci/bench/bench_soak --duration 12 \
        --slo-out "$SOAK_TMP/slo.json" > "$SOAK_TMP/soak.out"
    grep -q 'status=completed' "$SOAK_TMP/soak.out"
    python3 - "$SOAK_TMP/slo.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["report"] == "basrpt-slo-v1", doc
assert doc["status"] == "completed", doc["status"]
adm, dec, h = doc["admission"], doc["decisions"], doc["health"]
assert dec["count"] > 0 and dec["p99_ms"] > 0 and dec["p999_ms"] > 0, dec
assert adm["shed"] > 0, "overload segment never shed"
assert h["shed_entries"] >= 1, h
# Recovery: the final shed lands well before the feed ends, i.e. the
# shed rate returned to zero once the ramp came back down.
assert 0 < adm["last_shed_sec"] < 0.9 * doc["feed_seconds"], adm
assert h["final_state"] in ("healthy", "draining"), h
states = [t["to"] for t in h["transitions"]]
assert "shedding" in states and "healthy" in states, states
print("soak: SLO report well-formed "
      f"(shed={adm['shed']}, entries={h['shed_entries']}, "
      f"p99={dec['p99_ms']:.3f} ms)")
PYEOF

    # Wall-paced replay SIGTERM'd mid-flight: must stop admitting,
    # drain in-flight flows, checkpoint, and exit 0.
    ./build-ci/bench/bench_soak --duration 12 --pace 2 \
        --ckpt-dir "$SOAK_TMP/ckpts" \
        --slo-out "$SOAK_TMP/slo_drain.json" > "$SOAK_TMP/drain.out" &
    soak_pid=$!
    sleep 2
    kill -TERM "$soak_pid"
    rc=0
    wait "$soak_pid" || rc=$?
    if [[ "$rc" != 0 ]]; then
      echo "soak: SIGTERM-drained run exited $rc, want 0" >&2
      exit 1
    fi
    grep -q 'status=drained' "$SOAK_TMP/drain.out"
    compgen -G "$SOAK_TMP/ckpts/*.ckpt" > /dev/null \
        || { echo "soak: no checkpoint written before the drain" >&2; exit 1; }
    python3 - "$SOAK_TMP/slo_drain.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["report"] == "basrpt-slo-v1", doc
assert doc["status"] == "drained", doc["status"]
assert doc["health"]["final_state"] == "draining", doc["health"]
print(f"soak: SIGTERM drained cleanly at {doc['feed_seconds']:.2f} feed-s")
PYEOF
  )

  # Socket transport soak: the deterministic counter line is the oracle.
  # The chaos pass proxies the producer's link through fault::ChaosLink
  # replaying every link-* op kind at fixed byte offsets; the SIGKILL
  # pass murders the serving process mid-stream (no handler runs) and
  # restarts it with --resume while a separate producer process rides
  # out the outage via reconnect-with-replay. Both must reproduce the
  # plain run's counters bit for bit (docs/SERVING.md).
  socket_soak_stage() (
    set -e
    SOCK_TMP="$SOAK_TMP/socket"
    mkdir -p "$SOCK_TMP"

    ./build-ci/bench/bench_soak --duration 6 > "$SOCK_TMP/ref.out"
    grep '^soak status=' "$SOCK_TMP/ref.out" > "$SOCK_TMP/ref.line"

    cat > "$SOCK_TMP/links.faults" <<'EOF'
basrpt-faults-v1
link-dup,10000,2
link-reset,20000
link-corrupt,0,50000,5
link-stall,1,5000,0.05
link-corrupt,1,30000,3
link-reset,90000
EOF
    ./build-ci/bench/bench_soak --duration 6 \
        --listen "uds:$SOCK_TMP/chaos.sock" --drive \
        --chaos-plan "$SOCK_TMP/links.faults" \
        > "$SOCK_TMP/chaos.out" 2> "$SOCK_TMP/chaos.err"
    grep '^soak status=' "$SOCK_TMP/chaos.out" > "$SOCK_TMP/chaos.line"
    diff "$SOCK_TMP/ref.line" "$SOCK_TMP/chaos.line" \
        || { echo "soak: chaos-run counters diverge from the plain run" >&2
             cat "$SOCK_TMP/chaos.err" >&2; exit 1; }
    grep -q 'soak-client status=completed' "$SOCK_TMP/chaos.out"
    echo "soak: chaos link pass bit-identical" \
         "($(grep -o 'reconnects=[0-9]*' "$SOCK_TMP/chaos.out" | head -1))"

    # SIGKILL-and-reconnect: wall-paced server so the kill lands
    # mid-stream, producer in its own process.
    ./build-ci/bench/bench_soak --duration 6 --pace 2 \
        --listen "uds:$SOCK_TMP/kill.sock" \
        --ckpt-dir "$SOCK_TMP/ckpts" --ckpt-every-sec 0.25 \
        > "$SOCK_TMP/server1.out" 2> "$SOCK_TMP/server1.err" &
    local server_pid=$!
    ./build-ci/bench/bench_soak --duration 6 \
        --connect "uds:$SOCK_TMP/kill.sock" \
        > "$SOCK_TMP/client.out" 2> "$SOCK_TMP/client.err" &
    local client_pid=$!
    for _ in $(seq 1 100); do
      compgen -G "$SOCK_TMP/ckpts/*.ckpt" > /dev/null && break
      kill -0 "$server_pid" 2>/dev/null || break
      sleep 0.1
    done
    sleep 0.5  # get some post-checkpoint progress on the wire
    kill -KILL "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    compgen -G "$SOCK_TMP/ckpts/*.ckpt" > /dev/null \
        || { echo "soak: no checkpoint before the SIGKILL" >&2; exit 1; }

    ./build-ci/bench/bench_soak --duration 6 \
        --listen "uds:$SOCK_TMP/kill.sock" \
        --ckpt-dir "$SOCK_TMP/ckpts" --resume \
        > "$SOCK_TMP/server2.out" 2> "$SOCK_TMP/server2.err"
    rc=0
    wait "$client_pid" || rc=$?
    if [[ "$rc" != 0 ]]; then
      echo "soak: producer exited $rc across the SIGKILL, want 0" >&2
      cat "$SOCK_TMP/client.err" >&2
      exit 1
    fi

    grep '^soak status=' "$SOCK_TMP/server2.out" > "$SOCK_TMP/resumed.line"
    diff "$SOCK_TMP/ref.line" "$SOCK_TMP/resumed.line" \
        || { echo "soak: resumed counters diverge from the plain run" >&2
             exit 1; }
    grep -q 'soak-client status=completed' "$SOCK_TMP/client.out"
    records="$(sed -n 's/.*[^_]records=\([0-9]*\).*/\1/p' "$SOCK_TMP/ref.line")"
    grep -q "decisions=$records" "$SOCK_TMP/client.out" \
        || { echo "soak: producer missed decisions across the SIGKILL" >&2
             cat "$SOCK_TMP/client.out" >&2; exit 1; }
    reconnects="$(sed -n 's/.*reconnects=\([0-9]*\).*/\1/p' \
        "$SOCK_TMP/client.out")"
    [[ "${reconnects:-0}" -ge 1 ]] \
        || { echo "soak: producer never actually reconnected" >&2; exit 1; }
    echo "soak: SIGKILL-and-reconnect pass bit-identical" \
         "(reconnects=$reconnects, decisions=$records)"
  )

  soak_rc=0
  soak_stage || soak_rc=$?
  if [[ "$soak_rc" == 0 ]]; then
    echo "==== soak: socket transport (chaos + SIGKILL-and-reconnect) ===="
    socket_soak_stage || soak_rc=$?
  fi
  if [[ "$soak_rc" == 0 ]]; then
    echo "soak: passed"
  elif [[ "${BASRPT_SOAK_STRICT:-1}" == 1 ]]; then
    echo "soak: FAILED (set BASRPT_SOAK_STRICT=0 to warn only)" >&2
    exit 1
  else
    echo "soak: FAILED (warn-only: BASRPT_SOAK_STRICT=0)" >&2
  fi
fi

if [[ "$RUN_PERF" == 1 ]]; then
  # Perf stage: regenerate each BENCH_*.json with a bounded budget
  # (fewer reps / shorter horizon than the committed baselines, so the
  # stage stays under ~2 minutes) and gate against the baselines at the
  # repo root. scripts/perf_gate.py is the repo's one gate; --self-test
  # (also run check by check as the Gate.* ctests) proves the comparator
  # before any real records are trusted. The gate is strict by default —
  # a regression fails the build; set BASRPT_PERF_STRICT=0 to downgrade
  # to warn-only on noisy runners.
  echo "==== perf: bench records + regression gate ===="
  cmake -B build-ci >/dev/null
  cmake --build build-ci -j "$JOBS" \
      --target bench_sched_micro bench_candidate_cache bench_perf_suite
  python3 scripts/perf_gate.py --self-test

  PERF_TMP="$(mktemp -d)"
  # Re-arm the EXIT trap to also cover earlier stages' scratch dirs.
  trap 'rm -rf "$PERF_TMP" "${CKPT_TMP:-}" "${SOAK_TMP:-}"' EXIT
  GATE_ARGS=()
  if [[ "${BASRPT_PERF_STRICT:-1}" == 0 ]]; then
    GATE_ARGS=(--warn-only)
  fi

  run_perf_bench() {
    case "$1" in
      sched_micro) ./build-ci/bench/bench_sched_micro \
          --perf-out="$2" --warmup=200 --reps=3 ;;
      candidate_cache) ./build-ci/bench/bench_candidate_cache \
          --perf-out="$2" --warmup=200 --reps=3 ;;
      perf_suite) ./build-ci/bench/bench_perf_suite \
          --perf-out="$2" --horizon=0.5 --reps=2 ;;
    esac
  }

  # At this stage's reduced budget per-op ns metrics are preemption-
  # dominated (a single descheduling lands in p99/p999), so CI gates
  # throughput and allocation metrics only — ns metrics are defended by
  # full-discipline baseline refreshes. One retry before failing: a
  # genuine throughput regression reproduces on the second run, a host
  # noise burst does not.
  for name in sched_micro candidate_cache perf_suite; do
    run_perf_bench "$name" "$PERF_TMP/BENCH_$name.json"
    if ! python3 scripts/perf_gate.py "${GATE_ARGS[@]}" --skip-ns-metrics \
        --baseline "BENCH_$name.json" \
        --fresh "$PERF_TMP/BENCH_$name.json" \
        --trajectory-dir bench/trajectory; then
      echo "perf: $name failed the gate; retrying once to rule out noise"
      run_perf_bench "$name" "$PERF_TMP/BENCH_$name.json"
      python3 scripts/perf_gate.py "${GATE_ARGS[@]}" --skip-ns-metrics \
          --baseline "BENCH_$name.json" \
          --fresh "$PERF_TMP/BENCH_$name.json" \
          --trajectory-dir bench/trajectory
    fi
  done
fi

echo "==== ci passed ===="
