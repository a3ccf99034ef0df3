#!/usr/bin/env bash
# Asserts-on CI gate: configure a Debug build, where NDEBUG is unset and
# every assert in src/ is live, and run the tier-1 suite there. The default
# build (RelWithDebInfo) compiles the asserts out, so this is the gate that
# proves the tier-1 tests never depend on them being off. The tree also
# builds with -Werror, so a new warning fails the gate instead of scrolling
# past in a build that otherwise prints none.
#
# usage: tools/ci_debug.sh [debug-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-debug}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"
# The nested tree registers its own tier-2 gates (this one included);
# excluding them keeps the run to tier-1 and stops it recursing.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
  -LE 'tier2|stress'

echo "ci_debug: all checks passed"
