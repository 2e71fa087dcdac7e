#!/usr/bin/env bash
# Tier-1 verification for viaduct, plus the fault/recovery sweeps:
#
#   1. release build + full ctest (the tier-1 gate from ROADMAP.md);
#   2. the fault-labelled recovery tests (ctest -L fault);
#   3. the checkpoint-labelled crash-safety/resume tests (ctest -L checkpoint);
#   4. a thread-sanitized build running the tsan-labelled set (includes the
#      fault and checkpoint tests — the registry's decision streams and the
#      trial recorder are TSan bait);
#   5. address- and undefined-behavior-sanitized builds running the same
#      tsan-labelled set (heap misuse in the shared caches and pools,
#      UB in the numeric kernels; UBSan halts on its first report);
#   6. an uninjected CLI smoke run that must complete WARN-free: with no
#      site armed, no recovery path may fire and nothing may warn. The run
#      checkpoints, is re-run with --resume, and both must agree;
#   7. the perf_viaarray smoke: times the incremental level-1 network solve
#      over full failure sweeps and one level-1 characterization
#      (BENCH_viaarray.json; exit is nonzero only if a solve throws, never
#      on timing — the parity of the downdated solves with an exact LU
#      resolve is the ctest gate of step 1);
#   8. the perf_grid_scale smoke: the level-2 supernodal engine on a
#      ~1e4-node synthetic mesh — records the base factor, per-failure and
#      per-trial costs, asserts voltage parity with an up-looking Cholesky
#      oracle solve, thread-count and wire-EM audit on/off bit-identity
#      (exit is nonzero on any miss, never on timing);
#   9. the perf_obs_export smoke: grid MC with live telemetry fully on
#      (registry + JSONL sampler + HTTP listener + a scraper thread) must
#      stay within the telemetry overhead budget and keep ttfSamples
#      bit-identical vs. obs-off across thread counts (BENCH_obs_export.json);
#  10. the perf_fea_mg smoke: records the multigrid FEA solve time and CG
#      iteration count, and gates on the warm primitive store (zero FEA
#      solves, bit-identical stress) (BENCH_fea_mg.json);
#  11. a CLI warm-store smoke: two characterize runs sharing a
#      --primitive-store file — the second must report zero FEA solves in
#      its --metrics-out snapshot and print identical TTF percentiles;
#  12. the perf_serve smoke: in-process serving-layer gates — concurrent
#      duplicate dedup (one execution, one FEA solve), admission-control
#      shedding, slow/malformed-client robustness, lossless drain
#      (BENCH_serve.json);
#  13. a serve daemon smoke: viaduct_server on an ephemeral port, a burst
#      of concurrent IDENTICAL characterize requests (held overlapping via
#      the debug execute-delay hook) must trigger exactly ONE FEA-solve
#      burst, and SIGTERM must drain to a clean exit 0 whose --metrics-out
#      snapshot proves the dedup (serve.executed == 1);
#  14. the perf_em_steady smoke: the closed-form steady-state wire-EM audit
#      on a ~1e4-node mesh — parity <= 1e-8 with the marched transient
#      oracle on the fig6/fig7 line geometries and MC sample bit-identity
#      with the audit on and off; the audit is timed, never gated
#      (BENCH_em_steady.json).
#
# Usage: tools/run_tier1.sh [--skip-tsan] [--skip-asan-ubsan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN_UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan-ubsan) SKIP_ASAN_UBSAN=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== [1/14] tier-1: configure + build + full test suite ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/14] fault label: recovery-path tests ==="
ctest --test-dir build --output-on-failure -j "$JOBS" -L fault

echo "=== [3/14] checkpoint label: crash-safety and resume tests ==="
ctest --test-dir build --output-on-failure -j "$JOBS" -L checkpoint

if [[ "$SKIP_TSAN" -eq 1 ]]; then
  echo "=== [4/14] tsan sweep skipped (--skip-tsan) ==="
else
  echo "=== [4/14] thread-sanitized build: tsan label ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVIADUCT_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan
fi

if [[ "$SKIP_ASAN_UBSAN" -eq 1 ]]; then
  echo "=== [5/14] asan + ubsan sweeps skipped (--skip-asan-ubsan) ==="
else
  for SAN in address undefined; do
    echo "=== [5/14] ${SAN}-sanitized build: tsan label ==="
    cmake -B "build-$SAN" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DVIADUCT_SANITIZE="$SAN"
    cmake --build "build-$SAN" -j "$JOBS"
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir "build-$SAN" --output-on-failure -j "$JOBS" -L tsan
  done
fi

echo "=== [6/14] uninjected CLI smoke run must be WARN-free ==="
SMOKE_LOG="$(mktemp)"
SMOKE_CKPT="$(mktemp -u).ckpt"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* ' EXIT
./build/tools/viaduct_cli analyze --preset PG1 --trials 50 --char-trials 50 \
  --checkpoint "$SMOKE_CKPT" \
  --metrics-stream build/SMOKE_metrics_stream.jsonl --metrics-every 0.5 \
  2> "$SMOKE_LOG" \
  || { cat "$SMOKE_LOG" >&2; exit 1; }
# The background sampler must have left a parseable JSONL stream behind.
[ -s build/SMOKE_metrics_stream.jsonl ] \
  && grep -q "viaduct-obs-stream-v1" build/SMOKE_metrics_stream.jsonl \
  || { echo "FAIL: --metrics-stream produced no samples" >&2; exit 1; }
# Resuming the finished run must restore every trial and stay WARN-free.
./build/tools/viaduct_cli analyze --preset PG1 --trials 50 --char-trials 50 \
  --checkpoint "$SMOKE_CKPT" --resume 2>> "$SMOKE_LOG" \
  | grep -q "checkpoint: resumed 50/50" \
  || { echo "FAIL: --resume did not restore all 50 grid trials" >&2
       cat "$SMOKE_LOG" >&2; exit 1; }
if grep -E "\[viaduct (WARN|ERROR)" "$SMOKE_LOG"; then
  echo "FAIL: WARN/ERROR log lines in an uninjected run (above)" >&2
  exit 1
fi
echo "smoke run clean (no WARN/ERROR lines, resume exact)"

echo "=== [7/14] perf_viaarray: incremental level-1 solver timing smoke ==="
# Benchmark registrations are skipped (filter matches nothing); the manual
# sweep and characterization timings and BENCH_viaarray.json still run.
(cd build/bench && ./perf_viaarray --benchmark_filter='^$')

echo "=== [8/14] perf_grid_scale: level-2 engine smoke ==="
# Oracle-parity and determinism gates on the smallest mesh; the full
# 1e4 -> 2e6 sweep is the same binary without --smoke.
(cd build/bench && ./perf_grid_scale --smoke)

echo "=== [9/14] perf_obs_export: live-telemetry overhead + bit-identity ==="
# Grid MC with the registry, JSONL sampler, HTTP listener, and a live
# scraper all running must stay within the overhead budget and produce
# bit-identical samples vs. obs-off across thread counts.
(cd build/bench && ./perf_obs_export --smoke)

echo "=== [10/14] perf_fea_mg: multigrid FEA solve + warm-store smoke ==="
# Records the multigrid solve on a reduced problem and gates on the
# warm-primitive-store zero-solve and bit-identity checks; the full
# fig7-size record is the same binary without --smoke (CI uploads its
# BENCH_fea_mg.json).
(cd build/bench && ./perf_fea_mg --smoke)

echo "=== [11/14] CLI warm-store smoke: second run must skip all FEA ==="
STORE_FILE="$(mktemp -u).primitives"
COLD_OUT="$(mktemp)"
WARM_OUT="$(mktemp)"
WARM_METRICS="$(mktemp)"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* "$STORE_FILE" "$COLD_OUT" \
  "$WARM_OUT" "$WARM_METRICS"' EXIT
./build/tools/viaduct_cli characterize --n 4 --trials 100 \
  --primitive-store "$STORE_FILE" > "$COLD_OUT"
./build/tools/viaduct_cli characterize --n 4 --trials 100 \
  --primitive-store "$STORE_FILE" --metrics-out "$WARM_METRICS" > "$WARM_OUT"
cmp -s "$COLD_OUT" "$WARM_OUT" \
  || { echo "FAIL: warm-store characterize output differs from cold" >&2
       diff "$COLD_OUT" "$WARM_OUT" >&2 || true; exit 1; }
python3 - "$WARM_METRICS" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
solves = snap.get("counters", {}).get("viaarray.fea_solves", 0)
hits = snap.get("counters", {}).get("primitive_store.hits", 0)
if solves != 0 or hits < 1:
    sys.exit(f"FAIL: warm run had fea_solves={solves}, store hits={hits}")
print(f"warm store clean: 0 FEA solves, {hits} primitive hit(s)")
EOF

echo "=== [12/14] perf_serve: serving-layer dedup/admission/drain smoke ==="
# In-process gates: N concurrent identical characterize requests collapse
# to ONE execution and ONE FEA solve; the queue limit sheds load with 429;
# malformed/slow clients get 400/413/408; drain loses no in-flight
# response (exit is nonzero on any gate miss; writes BENCH_serve.json).
(cd build/bench && ./perf_serve --smoke)

echo "=== [13/14] serve daemon smoke: dedup burst + clean SIGTERM drain ==="
SERVE_LOG="$(mktemp)"
SERVE_METRICS="$(mktemp)"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* "$STORE_FILE" "$COLD_OUT" \
  "$WARM_OUT" "$WARM_METRICS" "$SERVE_LOG" "$SERVE_METRICS"' EXIT
# The debug execute-delay holds the first request open long enough that
# the rest of the burst provably overlaps it in flight; workers >= burst
# so every duplicate is being handled concurrently when it joins.
./build/tools/viaduct_server --listen 127.0.0.1:0 --workers 6 \
  --debug-execute-delay-ms 300 --metrics-out "$SERVE_METRICS" \
  > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE_PORT=""
for _ in $(seq 1 100); do
  SERVE_PORT="$(sed -n 's#^listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' \
    "$SERVE_LOG")"
  [ -n "$SERVE_PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null \
    || { echo "FAIL: viaduct_server exited early" >&2
         cat "$SERVE_LOG" >&2; exit 1; }
  sleep 0.1
done
[ -n "$SERVE_PORT" ] \
  || { echo "FAIL: viaduct_server never announced its port" >&2
       cat "$SERVE_LOG" >&2; exit 1; }
python3 - "$SERVE_PORT" <<'EOF'
import json, sys, threading, urllib.request
port, burst = sys.argv[1], 6
body = b'{"n": 3, "trials": 20, "criterion": "open"}'
results = [None] * burst
def fire(i):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/characterize", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:
        results[i] = (resp.status, json.load(resp))
threads = [threading.Thread(target=fire, args=(i,)) for i in range(burst)]
for t in threads: t.start()
for t in threads: t.join()
if any(r is None or r[0] != 200 for r in results):
    sys.exit(f"FAIL: burst responses incomplete: {results}")
medians = {r[1]["medianYears"] for r in results}
deduped = sum(1 for r in results if r[1].get("deduped"))
if len(medians) != 1:
    sys.exit(f"FAIL: duplicate requests disagreed: {medians}")
if deduped != burst - 1:
    sys.exit(f"FAIL: expected {burst - 1} deduped joins, saw {deduped}")
print(f"burst ok: {burst} duplicates agree, {deduped} joined in flight")
EOF
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 0 ] \
  || { echo "FAIL: viaduct_server exited $SERVE_RC on SIGTERM" >&2
       cat "$SERVE_LOG" >&2; exit 1; }
python3 - "$SERVE_METRICS" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = snap.get("counters", {})
solves = counters.get("viaarray.fea_solves", 0)
executed = counters.get("serve.executed", 0)
deduped = counters.get("serve.deduped", 0)
if solves != 1 or executed != 1:
    sys.exit(f"FAIL: burst ran fea_solves={solves}, executed={executed}; "
             "expected exactly one of each")
if deduped < 1:
    sys.exit("FAIL: drained snapshot shows no deduped joins")
print(f"drain snapshot clean: 1 FEA-solve burst, {deduped} deduped join(s)")
EOF

echo "=== [14/14] perf_em_steady: steady-state wire-EM parity + audit timing ==="
# Closed-form steady-state audit vs the marched transient oracle on the
# paper line geometries (parity <= 1e-8) and MC sample bit-identity with
# the audit on and off; the full run on a ~1e5-node mesh is the same
# binary without --smoke.
(cd build/bench && ./perf_em_steady --smoke)

echo "ALL TIER-1 CHECKS PASSED"
