#!/usr/bin/env bash
# Configure, build, and run the full test suite under
# AddressSanitizer + UndefinedBehaviorSanitizer.
#
# Usage: tools/run_sanitized_tests.sh [build-dir] [sanitizer]
#   build-dir  defaults to <repo>/build-sanitize
#   sanitizer  ON (ASan+UBSan, default) or THREAD (TSan). TSan is the
#              opt-in job for exercising the thread-pool engine, the
#              online layer's lock-free MPSC ingest ring
#              (mpsc_ring_test's concurrent producer/drain hammer,
#              online_service_test's 1/2/8-thread sweeps incl. the
#              shed-policy and ring-full paths, campaign
#              online-differential and drop-accounting), the obs
#              metrics layer's sharded counter fold and per-slot
#              histogram merge (obs_test, obs_determinism_test), and
#              the durable store's group-commit WAL writes from the
#              poll loop (durable tests + the crash-recovery and
#              wal-torn-tail campaign corpus); it cannot be combined
#              with ASan in one build.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-sanitize}"
sanitizer="${2:-ON}"

cmake -S "$repo_root" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSLEUTH_SANITIZE="$sanitizer"
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the test run instead of
# printing and continuing.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# Durable-store leg: repeat the WAL/recovery slice with its scratch
# directories on tmpfs. The WAL torture tests rewrite one small file
# thousands of times; /dev/shm keeps the sanitized pass CPU-bound
# instead of stalling on the build disk. (The full suite above already
# ran these once under the default TMPDIR, so this leg is pure signal
# on the I/O path.)
if [ -w /dev/shm ]; then
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ASAN_OPTIONS="detect_leaks=1" \
    TMPDIR=/dev/shm \
        ctest --test-dir "$build_dir" -L durable --output-on-failure
fi

# Synthesis leg: repeat the trace-driven app-synthesis slice (infer
# unit tests, the generate→serialize round trip, and the
# synth-clone-fidelity corpus pins) so the inference hot loops —
# call-tree reconstruction, stage detection, log-normal fitting — get
# a dedicated sanitized pass.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$build_dir" -L synth --output-on-failure

# Second leg: the same sanitizer with the AVX2 kernel bodies compiled
# out (-DSLEUTH_SIMD=OFF), proving the scalar mirrors and the
# dispatch-free build are just as clean. The simd-labelled equivalence
# tests run here too (avx2:: symbols forward to scalar).
nosimd_dir="$build_dir-nosimd"
cmake -S "$repo_root" -B "$nosimd_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSLEUTH_SANITIZE="$sanitizer" \
    -DSLEUTH_SIMD=OFF
cmake --build "$nosimd_dir" -j "$(nproc)"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=1" \
    ctest --test-dir "$nosimd_dir" --output-on-failure -j "$(nproc)"
