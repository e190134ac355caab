#!/usr/bin/env bash
# Builds the parallel runtime under ThreadSanitizer and runs the
# parallelism and serving tests. Usage: scripts/tsan_check.sh [build-dir]
#
# TSan serializes and slows everything ~5-15x, so only the tests that
# exercise the thread pool are run here; the full suite stays on the
# regular Release build.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . -DAUTOAC_TSAN=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target parallel_test parallel_determinism_test sparse_ops_test \
           tensor_test gemm_test telemetry_test serving_test mutation_test

# halt_on_error makes any data-race report fail the run loudly instead of
# being buried in test output.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# Exercise the pool at several widths, including more threads than cores.
for threads in 2 4 7; do
  echo "== TSan pass with AUTOAC_NUM_THREADS=${threads} =="
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/parallel_test"
  AUTOAC_NUM_THREADS="${threads}" \
    "${BUILD_DIR}/tests/parallel_determinism_test"
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/sparse_ops_test"
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/tensor_test"
  # Telemetry layer: concurrent counter bumps, Emit calls, and profile
  # scopes from pool workers must be race-free.
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/telemetry_test"
done

# GEMM tiles write disjoint output rows from every pool worker. The test pins
# 1 and 4 threads itself, so one pass covers it.
echo "== TSan pass: gemm_test =="
"${BUILD_DIR}/tests/gemm_test"

# Serving: reader threads answer their own requests and share the
# connection list, the registry, each model's mutation overlay (behind its
# lock) and the registry counters with the accept loop. One pass each; the
# socket tests exercise the threads the server starts, and mutation_test
# reads one overlay from two threads while a third applies deltas.
echo "== TSan pass: serving_test =="
"${BUILD_DIR}/tests/serving_test"
echo "== TSan pass: mutation_test =="
"${BUILD_DIR}/tests/mutation_test"

echo "TSan check passed."
