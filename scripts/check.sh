#!/usr/bin/env bash
# Pre-PR gate: configure, build everything (libs, tests, benches, examples)
# with warnings-as-errors, run the full test suite, then run the smoke
# benches (capturing the parallel-replay curves as BENCH_fig10.json /
# BENCH_fig13.json), then build the hindsight_bench package and run its
# smoke entries. Run from anywhere; exits nonzero on the first failure.
#
#   ./scripts/check.sh                 # full gate
#   BUILD_DIR=out ./scripts/check.sh   # custom build dir
#   FLOR_SANITIZE=thread ./scripts/check.sh
#                                      # also run the concurrency + fork
#                                      # suites under ThreadSanitizer
#   FLOR_SANITIZE=address ./scripts/check.sh
#                                      # also run the full suite under
#                                      # AddressSanitizer + UBSan
#   FLOR_BUILD_TYPE=Debug ./scripts/check.sh
#                                      # override CMAKE_BUILD_TYPE (CI runs
#                                      # the Debug + Release matrix this way)
#   FLOR_CCACHE=1 ./scripts/check.sh   # compile through ccache (no-op when
#                                      # ccache is not installed)
#   BENCH_BASELINE=<dir> ./scripts/check.sh
#                                      # also diff the fresh BENCH_*.json
#                                      # captures against the copies in
#                                      # <dir>; fails on >10% wall-second
#                                      # regressions (scripts/bench_diff.py)
#                                      # — CI runs this warn-only against
#                                      # bench/baselines/
set -euo pipefail

case "${FLOR_SANITIZE:-}" in
  ""|thread|address) ;;
  *) echo "error: FLOR_SANITIZE must be 'thread' or 'address'" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Main configure args; the sanitizer tree gets its own array (no -Werror
# there) so neither depends on the other's element order — and both stay
# non-empty, which keeps `set -u` happy on bash < 4.4 (macOS ships 3.2).
CMAKE_ARGS=(-DFLOR_WERROR=ON)
SAN_ARGS=(-DFLOR_SANITIZE="${FLOR_SANITIZE:-}")
HINDSIGHT_ARGS=(-DCMAKE_BUILD_TYPE="${FLOR_BUILD_TYPE:-Release}")
if [[ -n "${FLOR_BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="${FLOR_BUILD_TYPE}")
  SAN_ARGS+=(-DCMAKE_BUILD_TYPE="${FLOR_BUILD_TYPE}")
fi
if [[ "${FLOR_CCACHE:-0}" != "0" ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  SAN_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  HINDSIGHT_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== test-seed audit =="
# New suites must derive their randomness from tests/test_util.h
# (TestSeed()/SeededRng()) so FLOR_TEST_SEED=<n> reproduces any failure;
# a literal seed ignores the override. SeededRng(<n>) literals are fine —
# those are salts layered on the base seed, not seeds.
if grep -nE 'mt19937[^;]*[({][0-9]|(^|[^A-Za-z_])Rng *[({] *[0-9]|Rng +[A-Za-z_0-9]+ *\( *[0-9]' \
        tests/*.cc tests/*.h; then
  echo "error: literal RNG seed in tests/ — use testutil::TestSeed()/SeededRng() (tests/test_util.h)" >&2
  exit 1
fi

echo "== construction lint =="
# A store's tier (bucket + bloom) is fixed when it is built, so
# CheckpointStore::Open is the one sanctioned way to build a store: direct
# construction anywhere else in src/ would bypass the tier configuration.
if grep -rnE 'make_unique<CheckpointStore>|new CheckpointStore|CheckpointStore [a-z_]+\(' \
        src/ | grep -vE '^src/checkpoint/store\.(h|cc):'; then
  echo "error: direct CheckpointStore construction in src/ — build stores" >&2
  echo "via CheckpointStore::Open, or open a finished run via OpenRun" >&2
  exit 1
fi

echo "== codec lint =="
# RLE is the one checkpoint codec. Codec::kLz names the retired LZ tag,
# which Decompress rejects, so only the codec itself may spell it: a
# product path asking for it would be asking for RLE under a dead name.
if grep -rn 'Codec::kLz' src/ | grep -vE '^src/serialize/compress\.(h|cc):'; then
  echo "error: Codec::kLz in src/ — the LZ codec is retired; ask for" >&2
  echo "Codec::kRle (src/serialize/compress.h)" >&2
  exit 1
fi

echo "== engine lint =="
# exec::Replay is the one way src/ replays a recorded run: it dispatches
# onto the simulated, thread and process engines. Building an engine
# directly anywhere else in src/ would bypass that dispatch.
if grep -rnE '(Process)?ReplayExecutor( +[A-Za-z_][A-Za-z_0-9]*)? *[({]|(make_unique<|new +)(exec::)?(Process)?ReplayExecutor\b' \
        src/ | grep -vE '^src/exec/'; then
  echo "error: replay engine constructed in src/ outside src/exec/ —" >&2
  echo "replay through exec::Replay (src/exec/replay_executor.h)" >&2
  exit 1
fi

echo "== retention lint =="
# Retention is a pass over a finished run (RetireRun, RetireBucketRun,
# ReconcileRun), which the service's background GC runs after a record.
# Only the passes and src/service/ may include checkpoint/gc.h, so record
# and replay never retire.
if grep -rn '#include "checkpoint/gc.h"' src/ \
     | grep -vE '^src/(checkpoint/gc\.cc|service/)'; then
  echo "error: checkpoint/gc.h included in src/ outside src/service/ —" >&2
  echo "record and replay never retire; run RetireRun on the finished" >&2
  echo "run (src/checkpoint/gc.h)" >&2
  exit 1
fi

echo "== restore lint =="
# A SkipBlock restore reads a checkpoint once and decodes it straight into
# the live frame (CheckpointStore::GetBytes, then RestoreCheckpoint). Only
# src/checkpoint/ may decode a checkpoint into owned snapshots
# (DecodeCheckpoint, CheckpointStore::Get), so replay never restores
# through the copying path.
if grep -rnE 'DecodeCheckpoint *\(|[Ss]tore_?(\(\))?(->|\.)Get *\(' src/ \
     | grep -vE '^src/checkpoint/'; then
  echo "error: DecodeCheckpoint or CheckpointStore::Get called in src/" >&2
  echo "outside src/checkpoint/ — restore with RestoreCheckpoint" >&2
  echo "(src/checkpoint/checkpoint.h)" >&2
  exit 1
fi

echo "== plan lint =="
# A replay is planned in one place: PlanPartitions (src/flor/replay_plan.h)
# resolves the init mode and partitions the main loop, and
# PlanActiveWorkers, PlannedRestoreEpochs and every replay worker call it,
# so the plan, the GC pins and the workers agree. Under src/, only the
# partitioner (which declares and defines them) and that planner may call
# PartitionMainLoop or PlanWorker.
if grep -rnE '\b(PartitionMainLoop|PlanWorker) *\(' src/ \
     | grep -vE '^src/flor/(partition\.(h|cc)|replay_plan\.cc):'; then
  echo "error: PartitionMainLoop or PlanWorker called in src/" >&2
  echo "outside src/flor/replay_plan.cc — plan with PlanPartitions" >&2
  echo "(src/flor/replay_plan.h)" >&2
  exit 1
fi

echo "== worker lint =="
# ReplayPartition (src/flor/replay.h) is the one way to run a replay
# worker, and exec::Replay the one way to run a whole replay. The worker's
# session class is private to src/flor/replay.cc and takes the replay
# request itself, so no other file under src/, bench/, examples/ or tests/
# may name a session or a per-worker options struct.
if grep -rnwE 'ReplaySession|ReplayOptions' src/ bench/ examples/ tests/ \
     | grep -vE '^src/flor/replay\.cc:'; then
  echo "error: ReplaySession or ReplayOptions named outside" >&2
  echo "src/flor/replay.cc — run one worker with ReplayPartition" >&2
  echo "(src/flor/replay.h) or a whole replay with exec::Replay" >&2
  exit 1
fi

echo "== cost lint =="
# The simulated cost model is the paper platform's rates: constants in
# src/checkpoint/materializer.h, read through MaterializeSeconds,
# RestoreSeconds and BucketRestoreSeconds. durable_notify_seconds, a
# MaterializerOptions field, is the one rate a caller sets. No preset may
# restate the model, and no request or options struct may carry a copy.
if grep -rn 'PaperPlatformCosts' src/ bench/ examples/ tests/ ||
   grep -rnE '\bMaterializerCosts +[A-Za-z_][A-Za-z_0-9]* *[;={(]' \
        src/ bench/ examples/ tests/ \
     | grep -vE '^src/checkpoint/materializer\.(h|cc):'; then
  echo "error: PaperPlatformCosts or a MaterializerCosts object — price" >&2
  echo "with the constants in src/checkpoint/materializer.h" >&2
  exit 1
fi

echo "== manifest lint =="
# A record's manifest holds only what a reader reads. The Joint
# Invariant's c is kRestoreFactor, so no c estimate is kept, and no
# vanilla runtime or loop execution count is written. Under src/, only
# the reader in src/checkpoint/store.cc may name the lines older records
# wrote (it checks and drops them), and the fields and options that
# filled them stay deleted everywhere.
if grep -rnE 'c_estimate|vanilla_runtime|loop_exec' src/ \
     | grep -vE '^src/checkpoint/store\.cc:' ||
   grep -rnE 'initial_c|ObserveRestore|loop_executions|vanilla_runtime_seconds' \
        src/ bench/ examples/ tests/; then
  echo "error: a retired manifest line or its field named outside the" >&2
  echo "manifest reader (src/checkpoint/store.cc) — the Joint Invariant's" >&2
  echo "c is kRestoreFactor (src/checkpoint/materializer.h)" >&2
  exit 1
fi

echo "== configure (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== unit + property tests =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
      -j "${JOBS}" -LE bench_smoke

echo "== bench smoke (BENCH_SMOKE=1) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
      -j "${JOBS}" -L bench_smoke

echo "== bench JSON capture (BENCH_fig10/fig11/fig13/fig14/table4.json) =="
BENCH_SMOKE=1 BENCH_JSON=BENCH_fig10.json \
    "${BUILD_DIR}/bench_fig10_parallel_replay" > /dev/null
BENCH_SMOKE=1 BENCH_JSON=BENCH_fig11.json \
    "${BUILD_DIR}/bench_fig11_record_overhead" > /dev/null
BENCH_SMOKE=1 BENCH_JSON=BENCH_fig13.json \
    "${BUILD_DIR}/bench_fig13_scaleout" > /dev/null
BENCH_SMOKE=1 BENCH_JSON=BENCH_fig14.json \
    "${BUILD_DIR}/bench_fig14_cost" > /dev/null
BENCH_SMOKE=1 BENCH_JSON=BENCH_table4.json \
    "${BUILD_DIR}/bench_table4_storage" > /dev/null
BENCH_SMOKE=1 BENCH_JSON=BENCH_service.json \
    "${BUILD_DIR}/bench_service_mixed" > /dev/null
echo "wrote BENCH_fig10.json BENCH_fig11.json BENCH_fig13.json BENCH_fig14.json BENCH_table4.json BENCH_service.json"

echo "== hindsight benchmark package (${BUILD_DIR}-hindsight) =="
# hindsight_bench/ is a CMake package of its own that builds the flor
# libraries from source and links bench_hindsight against them; nothing
# above compiles it, so an src/ API change could break it unnoticed.
cmake -S hindsight_bench -B "${BUILD_DIR}-hindsight" "${HINDSIGHT_ARGS[@]}"
cmake --build "${BUILD_DIR}-hindsight" -j "${JOBS}" --target bench_hindsight
ctest --test-dir "${BUILD_DIR}-hindsight" --output-on-failure \
      --no-tests=error -R '^(smoke_bench_hindsight|compare_self_check)$'

if [[ -n "${BENCH_BASELINE:-}" ]]; then
  echo "== bench regression diff vs ${BENCH_BASELINE} =="
  for f in BENCH_fig10.json BENCH_fig11.json BENCH_fig13.json BENCH_fig14.json BENCH_table4.json BENCH_service.json; do
    if [[ -f "${BENCH_BASELINE}/${f}" ]]; then
      python3 scripts/bench_diff.py "${BENCH_BASELINE}/${f}" "${f}"
    else
      echo "bench_diff: no baseline for ${f}, skipped"
    fi
  done
fi

if [[ "${FLOR_SANITIZE:-}" == "thread" ]]; then
  echo "== ThreadSanitizer: concurrency + fork suites (${BUILD_DIR}-tsan) =="
  cmake -B "${BUILD_DIR}-tsan" -S . "${SAN_ARGS[@]}"
  cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}" \
        --target replay_executor_test spool_test bloom_test env_test \
                 process_executor_test crash_consistency_test \
                 tiered_store_test service_test server_test
  # `tsan` labels the suites exercising real threads (thread-pool replay
  # engine, the ack-driven spool mirror, the background queue and a POSIX
  # listing racing writes and deletes); `proc` labels the fork-heavy suites
  # (process replay engine, SIGKILL crash harness); `tiered` labels the
  # tiered-store suite racing bucket fault-in against local GC demotion;
  # `service` labels the Connection/Session suite racing concurrent tenant
  # sessions against the connection's background GC worker; `server` labels
  # the wire-server suite racing socket clients, fuzzed frames, and drain
  # against the accept/handler threads. All run
  # instrumented: the children stay single-threaded and no fork happens
  # while another process-engine run is mid-run, which ThreadSanitizer
  # supports.
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure \
        --no-tests=error -j "${JOBS}" -L 'tsan|proc|tiered|service|server'
elif [[ "${FLOR_SANITIZE:-}" == "address" ]]; then
  # Memory errors and undefined behaviour anywhere, the decoders of torn
  # or hostile bytes above all: every ctest entry, bench smoke runs
  # included, with any UBSan finding fatal.
  echo "== AddressSanitizer + UBSan: full suite (${BUILD_DIR}-asan) =="
  cmake -B "${BUILD_DIR}-asan" -S . "${SAN_ARGS[@]}"
  cmake --build "${BUILD_DIR}-asan" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}-asan" --output-on-failure \
        --no-tests=error -j "${JOBS}"
fi

echo "== OK =="
