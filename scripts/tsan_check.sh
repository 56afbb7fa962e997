#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the suites below. A session has one thread pool, the round engine's,
# passed explicitly to every stage that runs on it; those stages, plus
# the shared structures their tasks touch, are where real data races
# could hide:
# - the pool itself: chunked, allocation-free ParallelFor and nested
#   calls running inline on a worker (test_thread_pool);
# - the owner fan-out: concurrent train/encode/mask, each owner on its
#   own MaskScratch (test_round_engine, test_secureagg);
# - replica-parallel block execution: followers validating, replicas
#   committing and laggards catching up side by side while sharing the
#   contract host, its signature-verify cache and the Merkle/mempool
#   builds (test_consensus, test_sig_cache, test_merkle,
#   bench_chain_throughput --quick, which runs a consensus engine with
#   and without a pool);
# - batched Shamir/Feldman recovery on the pool (test_shamir, test_vss,
#   test_dropout_recovery);
# - native SV's coalition retraining and the coalition engine's
#   weight-space scoring on a pool (test_native_sv,
#   test_coalition_engine, test_utility), and row-blocked GEMM calls on
#   pool workers (test_kernels, bench_kernels --quick);
# - the sharded metrics, thread-local spans, the HTTP exporter's scrape
#   threads racing a live round, and the round ledger (test_metrics,
#   test_tracer, test_http_exporter, test_round_ledger);
# - whole sessions at pool sizes 1 and 3: faults and a reduced chaos
#   sweep, byzantine slashing, kill/restart, the golden matrix and
#   bench_e2e_rounds --quick (test_fault, test_chaos, test_byzantine,
#   test_resume, test_coordinator, test_golden_sessions).
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBCFL_SANITIZE=thread \
  -DBCFL_BUILD_BENCHMARKS=ON \
  -DBCFL_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_thread_pool test_coalition_engine test_utility \
  test_kernels test_secureagg test_native_sv \
  test_metrics test_tracer test_http_exporter test_round_ledger \
  test_fault test_chaos \
  test_round_engine test_shamir test_vss test_dropout_recovery \
  test_byzantine test_sig_cache test_merkle test_resume \
  test_consensus test_coordinator \
  test_golden_sessions bench_kernels bench_chain_throughput bench_e2e_rounds

# halt_on_error: fail the script on the first race instead of limping on.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

"$BUILD_DIR/tests/test_thread_pool"
"$BUILD_DIR/tests/test_coalition_engine"
"$BUILD_DIR/tests/test_utility"
"$BUILD_DIR/tests/test_kernels"
"$BUILD_DIR/tests/test_secureagg"
"$BUILD_DIR/tests/test_native_sv"
"$BUILD_DIR/tests/test_metrics"
"$BUILD_DIR/tests/test_tracer"
"$BUILD_DIR/tests/test_http_exporter"
"$BUILD_DIR/tests/test_round_ledger"
"$BUILD_DIR/tests/test_fault"
"$BUILD_DIR/tests/test_round_engine"
"$BUILD_DIR/tests/test_shamir"
"$BUILD_DIR/tests/test_vss"
"$BUILD_DIR/tests/test_dropout_recovery"
# Byzantine coordinator rounds under TSan: slash transactions landing
# during recovery while a three-worker owner fan-out is hot.
"$BUILD_DIR/tests/test_byzantine" \
  --gtest_filter='Engines/SlashEqualsCrashTest.BadShareForgerDuringRecovery/Parallel:ByzantineTest.MixedByzantinePlanIsPoolSizeInvariant'
"$BUILD_DIR/tests/test_sig_cache"
"$BUILD_DIR/tests/test_merkle"
"$BUILD_DIR/tests/test_consensus"
"$BUILD_DIR/tests/test_coordinator"
# Kill/restart under TSan, reduced to the three-worker cases where
# checkpoint/block-log writes race the owner fan-out.
"$BUILD_DIR/tests/test_resume" \
  --gtest_filter='ResumeTest.ParallelKillMidSessionResumesBitIdentical:ResumeTest.ResumeSurvivesFaultsBesidesTheKill'
# The golden session matrix under TSan (clean, dropout, byzantine,
# kill/resume, reward): every session at pool sizes 1 and 3 must still
# land the digests committed in tests/golden/sessions.json.
"$BUILD_DIR/tests/test_golden_sessions"
# Chaos under TSan: full faulted protocol runs (coordinator + consensus
# + recovery) with a reduced sweep — TSan is ~10x slower per seed.
BCFL_CHAOS_SEEDS="${BCFL_CHAOS_SEEDS:-2}" "$BUILD_DIR/tests/test_chaos"

# The benches write BENCH_*.json; keep them out of the tree.
TSAN_TMP="$(mktemp -d)"
trap 'rm -rf "$TSAN_TMP"' EXIT
BENCH_KERNELS="$(cd "$BUILD_DIR" && pwd)/bench/bench_kernels"
(cd "$TSAN_TMP" && "$BENCH_KERNELS" --quick)
BENCH_CHAIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_chain_throughput"
(cd "$TSAN_TMP" && "$BENCH_CHAIN" --quick)
BENCH_E2E="$(cd "$BUILD_DIR" && pwd)/bench/bench_e2e_rounds"
(cd "$TSAN_TMP" && "$BENCH_E2E" --quick)

echo "TSan: all clean"
