#!/usr/bin/env bash
# Fixed-seed tlfuzz campaign runner (DESIGN.md Sec. 11).
#
# Runs the full-size differential campaign (10k seeded random TL32 programs,
# fast-path caches vs uncached reference, each compared after every step and
# at the window boundaries of the fast run loop) and the fault-injection
# campaign (seeded spurious-IRQ / bit-flip / hostile-DMA / MPU-reprogram /
# mid-run reset streams with Sec. 7 invariant checks) — first in a plain
# build, then under ASan/UBSan so cache-invalidation bugs fail loudly.
#
# Every tlfuzz failure line carries the responsible seed; reproduce with
#   tlfuzz diff   --seed <S> --programs 1
#   tlfuzz inject --seed <S> --campaigns 1
#
# usage: tools/run_fuzz.sh [build-dir] [asan-build-dir]
set -euo pipefail

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_DIR/build}"
ASAN_BUILD_DIR="${2:-$REPO_DIR/build-asan-fuzz}"

DIFF_ARGS=(diff --programs 10000 --seed 1 --steps 400)
INJECT_ARGS=(inject --campaigns 20 --events 200 --seed 1 --steps 400)

if [[ ! -x "$BUILD_DIR/tools/tlfuzz" ]]; then
  cmake -B "$BUILD_DIR" -S "$REPO_DIR"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target tlfuzz
fi

echo "== plain build: differential campaign =="
"$BUILD_DIR/tools/tlfuzz" "${DIFF_ARGS[@]}"
echo "== plain build: injection campaign =="
"$BUILD_DIR/tools/tlfuzz" "${INJECT_ARGS[@]}"

echo "== ASan/UBSan build =="
cmake -B "$ASAN_BUILD_DIR" -S "$REPO_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target tlfuzz

# Smaller corpus under sanitizers (~10x slower per step); same seed base so
# any plain-build finding stays reproducible here.
"$ASAN_BUILD_DIR/tools/tlfuzz" diff --programs 1500 --seed 1 --steps 400
"$ASAN_BUILD_DIR/tools/tlfuzz" inject --campaigns 4 --events 150 --seed 1

echo "run_fuzz: all campaigns clean"
