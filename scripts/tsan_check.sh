#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the thread-pool, coalition-engine, kernel, secure-aggregation, native-SV
# and observability suites. These are the places real data races could
# hide: the chunked ParallelFor, the row-partitioned parallel GEMM, the
# per-peer parallel mask expansion, the engine's parallel utility scoring
# + sharded CachingUtility, parallel coalition retraining, and the
# sharded metrics / thread-local span machinery in src/obs.
# bench_kernels --quick also runs: it exercises every optimized kernel
# against the reference path with a pool attached, under TSan.
# test_fault and a reduced test_chaos sweep run the full faulted
# protocol (fault injection, recovery, view changes) under TSan too.
# Since the chain-throughput-engine PR the sweep also covers the sharded
# signature-verify cache, the pooled Merkle/mempool builds (test_sig_cache,
# test_merkle) and bench_chain_throughput --quick, whose pre-verification
# fan-out and chain pool run hot under TSan.
# Since the telemetry-plane PR it also covers the HTTP exporter (scrape
# threads racing a live coordinator round) and the round ledger's
# coordinator wiring, plus the snapshot-vs-Reset stress in test_metrics.
# Since the parallel round engine PR it also covers the owner fan-out
# (test_round_engine: concurrent train/mask/payload against the
# allocation-free ParallelFor), the batched Shamir recovery under a pool
# (test_shamir, test_dropout_recovery) and bench_e2e_rounds --quick,
# whose pool-1 and pool-N sessions run the whole protocol both ways.
# Since the byzantine-hardening PR it also covers the Feldman share
# verification (test_vss, batched ModPow under a pool) and the full
# accusation/slashing path at pool sizes 1 and 3 (test_byzantine), where
# slash transactions race the owner fan-out.
# Since the durable-persistence PR it also covers kill/restart recovery
# (test_resume, reduced to the multi-worker cases): the block-log commit
# sink and checkpoint writes interleave with the hot owner fan-out, and
# the resumed session must still be bit-identical.
# Since replica-parallel block execution it also covers the consensus
# engine on a pool (test_consensus: followers validating, replicas
# committing and laggards catching up side by side, each on its own
# replica while sharing the contract host and its caches) and the
# coordinator suites, whose sessions run every block that way.
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
