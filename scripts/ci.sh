#!/usr/bin/env bash
# CI gate, split into stages so .github/workflows/ci.yml can fan them out
# across parallel jobs while local runs keep the single entry point:
#
#   scripts/ci.sh [stage]
#
#   tier1   RelWithDebInfo build + full ctest (the tier-1 gate)
#   san     ASan/UBSan build + `ctest -L san` (concurrency-heavy suites)
#   tsan    TSan build + `ctest -L tsan` (SimComm collectives, the
#           fault-injecting Channel, ReplNode's sender/service threads)
#   chaos   bounded crash-matrix smoke: `ctest -L chaos` (fixed seed,
#           capped event budget per scenario; the exhaustive matrix runs
#           as its own sharded CI job via tools/crpm_crashmatrix)
#   bench   perf smoke: pinned-scale bench_fig7_throughput + bench_repl +
#           the bench_fig9_interval async-stall section + bench_kvd
#           tail-latency-during-checkpoints + bench_archive tiering +
#           the bench_fig8_parallel multi-window pipeline section +
#           the bench_recovery restore-speedup/TTFQ sections,
#           3 runs each, gated by scripts/check_bench.py against
#           bench/baseline.json (best-of-3 ratios, see the baseline's
#           comment for the refresh procedure). Set CRPM_BENCH_OUT to
#           keep the per-run JSON reports (CI uploads them as artifacts);
#           when GITHUB_STEP_SUMMARY is set the gate table lands in the
#           job summary.
#   kvd     end-to-end kvd smoke: start crpm_kvd, drive live load with a
#           mid-run durable checkpoint, kill -9, restart on the same data
#           dir, verify every acked durable write, crpm_inspect kvd
#   all     every stage in sequence (default)
#
# If ccache is installed the builds route through it automatically
# (CMAKE_CXX_COMPILER_LAUNCHER), so CI restores of the ccache directory
# turn rebuilds into cache hits.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"
# Parallel ctest oversubscribes small machines and flakes timing-sensitive
# tests; default to serial unless the caller opts in via CTEST_JOBS.
CTEST_JOBS="${CTEST_JOBS:-1}"

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

configure_build() {  # <dir> [extra cmake args...]
  local dir="$1"
  shift
  cmake -B "$dir" -S . ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"} "$@" \
    >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

stage_tier1() {
  echo "== tier-1: RelWithDebInfo build + full ctest =="
  configure_build build
  ctest --test-dir build --output-on-failure -j "$CTEST_JOBS"
  # Isolation guard: the InspectTool, RestoreParallel and Snapshot* cases
  # and the nvm_test, core_test, apps_test and engine_differential_test
  # suites each work in their own directory (or in memory), so they must
  # pass when run concurrently and repeatedly. nvm_test's CostModel cases
  # are left out: they assert wall-clock bounds on a spin loop, which a
  # loaded host can miss.
  local isolated='InspectTool|RestoreParallel|Snapshot'
  isolated+='|^(Stats|HeapDevice|FileDevice|CrashSimTest)\.'  # nvm_test
  isolated+='|^(Geometry|Options|ContainerTest|Heap|StlAllocator)\.'
  isolated+='|^(Registry|CApi|BufferedTest)\.'  # with the above: core_test
  isolated+='|AppsTest\.|^(AppsMultiRank|StateStoreTriage)\.'  # apps_test
  isolated+='|^(StateStoreArchive|EngineDifferential)\.'
  ctest --test-dir build --output-on-failure -R "$isolated" \
    -j"$(nproc)" --repeat until-fail:3
}

stage_san() {
  echo "== sanitizers: ASan/UBSan build + san-labeled suites =="
  configure_build build-san -DCRPM_SANITIZE=ON -DCRPM_BUILD_BENCH=OFF \
    -DCRPM_BUILD_EXAMPLES=OFF
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir build-san -L san --output-on-failure -j "$CTEST_JOBS"
}

stage_tsan() {
  echo "== sanitizers: TSan build + tsan-labeled suites =="
  configure_build build-tsan -DCRPM_SANITIZE_THREAD=ON \
    -DCRPM_BUILD_BENCH=OFF -DCRPM_BUILD_EXAMPLES=OFF
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
    ctest --test-dir build-tsan -L tsan --output-on-failure -j "$CTEST_JOBS"
}

stage_chaos() {
  echo "== chaos: bounded crash-matrix smoke (ctest -L chaos) =="
  configure_build build
  ctest --test-dir build -L chaos --output-on-failure -j "$CTEST_JOBS"
}

stage_bench() {
  echo "== bench: perf smoke + regression gate =="
  configure_build build
  local out keep_out=1
  if [ -n "${CRPM_BENCH_OUT:-}" ]; then
    out="$CRPM_BENCH_OUT"
    mkdir -p "$out"
  else
    out="$(mktemp -d)"
    keep_out=0
  fi
  local results=()
  for run in 1 2 3; do
    CRPM_KEYS=60000 CRPM_INSERT_OPS=20000 CRPM_INTERVAL_MS=8 CRPM_EPOCHS=3 \
      ./build/bench/bench_fig7_throughput --json "$out/fig7_$run.json" \
      >/dev/null
    CRPM_REPL_EPOCHS=10 CRPM_REPL_DIRTY_KB=256 CRPM_REPL_MB=8 \
      ./build/bench/bench_repl --json "$out/repl_$run.json" >/dev/null
    # Stall section only: the fig9 throughput tables are minutes-long, the
    # async-vs-sync stall ratio gate needs just the stall epochs.
    CRPM_FIG9_STALL_ONLY=1 \
      CRPM_KEYS=60000 CRPM_INSERT_OPS=20000 CRPM_INTERVAL_MS=8 \
      CRPM_EPOCHS=3 \
      ./build/bench/bench_fig9_interval --json "$out/fig9_$run.json" \
      >/dev/null
    CRPM_KVD_KEYS=1000000 CRPM_KVD_CONNS=4 CRPM_KVD_SECONDS=2 \
      CRPM_KVD_INTERVAL_MS=25 CRPM_KVD_WORKERS=4 \
      ./build/bench/bench_kvd --json "$out/kvd_$run.json" >/dev/null
    # Tiered-archive economics: the arch+tier row gates the codec win
    # (bytes_per_epoch_vs_raw) and the commit-path overhead (cpu_vs_off).
    CRPM_ARCH_EPOCHS=16 CRPM_ARCH_DIRTY_KB=1024 CRPM_ARCH_MB=32 \
      CRPM_ARCH_INTERVAL_MS=4 \
      ./build/bench/bench_archive --json "$out/arch_$run.json" >/dev/null
    # Multi-window pipeline section only: flush-bandwidth scaling and
    # capture-stall gates for the sharded async commit pipeline.
    CRPM_FIG8_MW_ONLY=1 CRPM_FIG8_MW_EPOCHS=24 \
      ./build/bench/bench_fig8_parallel --json "$out/fig8mw_$run.json" \
      >/dev/null
    # Recovery sections only: sharded-restore speedup (per-shard thread
    # CPU) and lazy time-to-first-query vs the full blocking restore.
    CRPM_REC_ONLY=1 CRPM_REC_MB=32 CRPM_REC_EPOCHS=6 \
      CRPM_REC_DIRTY_KB=4096 \
      ./build/bench/bench_recovery --json "$out/rec_$run.json" >/dev/null
    results+=("$out/fig7_$run.json" "$out/repl_$run.json" \
      "$out/fig9_$run.json" "$out/kvd_$run.json" "$out/arch_$run.json" \
      "$out/fig8mw_$run.json" "$out/rec_$run.json")
  done
  local summary_args=()
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    summary_args=(--summary "$GITHUB_STEP_SUMMARY")
  fi
  python3 scripts/check_bench.py \
    ${summary_args[@]+"${summary_args[@]}"} "${results[@]}"
  if [ "$keep_out" -eq 0 ]; then rm -rf "$out"; fi
}

# stage_kvd leaves background processes and a mktemp dir behind if any
# step between spawn and cleanup fails (set -e aborts the function mid
# way); the EXIT trap reaps whatever is still registered here. Cleared on
# the stage's normal exit path, so a green run traps a no-op.
KVD_SRV=""
KVD_LOAD=""
KVD_WORK=""
cleanup_kvd() {
  if [ -n "$KVD_LOAD" ]; then kill "$KVD_LOAD" 2>/dev/null || true; fi
  if [ -n "$KVD_SRV" ]; then kill -9 "$KVD_SRV" 2>/dev/null || true; fi
  if [ -n "$KVD_LOAD" ]; then wait "$KVD_LOAD" 2>/dev/null || true; fi
  if [ -n "$KVD_SRV" ]; then wait "$KVD_SRV" 2>/dev/null || true; fi
  if [ -n "$KVD_WORK" ]; then rm -rf "$KVD_WORK"; fi
  KVD_SRV="" KVD_LOAD="" KVD_WORK=""
}

stage_kvd() {
  echo "== kvd: serve / live load / kill -9 / recover / verify smoke =="
  configure_build build
  local kvd=./build/tools/crpm_kvd
  trap cleanup_kvd EXIT
  local work
  work="$(mktemp -d)"
  KVD_WORK="$work"
  mkdir -p "$work/data"

  "$kvd" serve --dir "$work/data" --port 0 --port-file "$work/port" \
    --interval-ms 4 --workers 4 >"$work/server1.log" 2>&1 &
  local srv=$!
  KVD_SRV="$srv"
  for _ in $(seq 1 300); do [ -s "$work/port" ] && break; sleep 0.1; done
  [ -s "$work/port" ] || { cat "$work/server1.log"; return 1; }
  local port
  port="$(cat "$work/port")"

  # 5 s of live load; a durable checkpoint fires mid-run, then the server
  # is SIGKILLed while the load is still going.
  "$kvd" load --port "$port" --threads 4 --seconds 5 --keys 50000 \
    --durable-every 8 --get-ratio 0.5 --state-file "$work/acked" \
    >"$work/load.log" 2>&1 &
  local load=$!
  KVD_LOAD="$load"
  sleep 2
  "$kvd" cmd --port "$port" ckpt --durable
  sleep 1
  kill -9 "$srv" 2>/dev/null || true
  wait "$load"
  KVD_LOAD=""
  wait "$srv" 2>/dev/null || true
  KVD_SRV=""
  cat "$work/load.log"

  rm -f "$work/port"
  "$kvd" serve --dir "$work/data" --port 0 --port-file "$work/port" \
    --interval-ms 8 --workers 4 >"$work/server2.log" 2>&1 &
  srv=$!
  KVD_SRV="$srv"
  for _ in $(seq 1 300); do [ -s "$work/port" ] && break; sleep 0.1; done
  [ -s "$work/port" ] || { cat "$work/server2.log"; return 1; }
  port="$(cat "$work/port")"
  head -1 "$work/server2.log"

  # Every acked durable write must have survived the kill.
  "$kvd" verify --port "$port" --state-file "$work/acked"
  kill "$srv" 2>/dev/null || true
  wait "$srv" 2>/dev/null || true
  KVD_SRV=""

  ./build/tools/crpm_inspect kvd "$work/data"
  rm -rf "$work"
  KVD_WORK=""
}

case "$STAGE" in
  tier1) stage_tier1 ;;
  san) stage_san ;;
  tsan) stage_tsan ;;
  chaos) stage_chaos ;;
  bench) stage_bench ;;
  kvd) stage_kvd ;;
  all)
    stage_tier1
    stage_san
    stage_tsan
    stage_chaos
    stage_bench
    stage_kvd
    ;;
  *)
    echo "unknown stage '$STAGE' (tier1|san|tsan|chaos|bench|kvd|all)" >&2
    exit 64
    ;;
esac

echo "ci.sh: stage '$STAGE' green"
