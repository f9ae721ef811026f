#!/usr/bin/env bash
# Build and run the differential suites: every bitwise-equivalence
# contract in the tree, grouped under the ctest label `differential` —
#   - simd_test            scalar <-> AVX2 kernel equivalence
#   - online_service_test  online <-> batch, 1/2/8-thread determinism
#   - online_incremental_test  cached <-> uncached incident re-analysis
#   - pipeline_cache_test  warm ≡ cold re-poll, invalidation fallback
#   - gnn_incremental_test incremental ≡ full counterfactual propagation
#   - core_gnn_test        trained-model predictions pinned bit for bit
#   - campaign_corpus      pinned repro cases (incl. the
#                          incremental-repoll invariant)
#
# The label runs twice: once in a -DSLEUTH_SIMD=ON build and once with
# the AVX2 bodies compiled out (-DSLEUTH_SIMD=OFF), so each contract
# holds on both dispatch paths.
#
# Usage: tools/run_differentials.sh [build-dir]
#   build-dir  defaults to <repo>/build-differential
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-differential}"

for simd in ON OFF; do
    dir="$build_dir"
    [ "$simd" = OFF ] && dir="$build_dir-nosimd"
    echo "== differential suites (SLEUTH_SIMD=$simd): $dir =="
    cmake -S "$repo_root" -B "$dir" \
        -DCMAKE_BUILD_TYPE=Release \
        -DSLEUTH_SIMD="$simd"
    cmake --build "$dir" -j "$(nproc)"
    ctest --test-dir "$dir" -L differential --output-on-failure \
        -j "$(nproc)"
done
