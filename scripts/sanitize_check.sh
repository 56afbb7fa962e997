#!/usr/bin/env bash
# Builds the whole tree under AddressSanitizer, then under
# UndefinedBehaviorSanitizer, and runs the full ctest suite in each.
# Both use -fno-sanitize-recover=all, so the first finding aborts the
# test that hit it and fails the script.
# ASan covers the ownership code: ContractState's shared value buffers,
# its per-transaction undo journal, the post-states miners keep for
# adopt-on-commit, the block log and the Merkle trees. UBSan covers the
# kernels' edge shapes (empty and degenerate matrices) and the
# fixed-point / serialization arithmetic.
#
# Usage: scripts/sanitize_check.sh [build-dir-prefix]
#   (default: build, giving build-address/ and build-undefined/)
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build}"

export ASAN_OPTIONS="abort_on_error=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1"

for SANITIZER in address undefined; do
  BUILD_DIR="$PREFIX-$SANITIZER"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBCFL_SANITIZE="$SANITIZER" \
    -DBCFL_BUILD_BENCHMARKS=OFF \
    -DBCFL_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=all"
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
  echo "$SANITIZER: full suite clean"
done

echo "ASan + UBSan: all clean"
