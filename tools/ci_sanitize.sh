#!/usr/bin/env bash
# Sanitizer build-and-test configurations:
#  * ASan + UBSan over the full suite: cache/invalidation bugs in the
#    simulator fast path (code cache, EA-MPU subject/coverage memos, bus
#    routing memoization, superinstruction fusion's host backing pointers, the
#    data-access windows, and the SHA-NI/scalar SHA-256 engines) surface
#    as sanitizer failures instead of heisenbugs. The fusion/windowed-
#    differential and sha256_engine suites run here like everything else.
#  * TSan over the fleet/pool tests: the multi-threaded fleet executor
#    (QuantumPool work stealing, per-quantum Platform ownership handoff,
#    DESIGN.md §13) must be race-free at any thread count; FleetDigest's
#    per-node state hashing runs in these tests too.
#
# usage: tools/ci_sanitize.sh [asan-build-dir] [tsan-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
SRC_DIR="$(dirname "$0")/.."

# RelWithDebInfo, the tier-1 build type; tools/ci_debug.sh is the
# asserts-on (Debug) run of the same suite.
cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# TSan stage: fleet executor + RNG tests, the fleet CLI smoke runs (ctest
# names tlfleet_*), the hostile-link campaigns, the update-campaign suites,
# the tlfleetd control-plane suite and the warm-boot copies — multi-threaded
# quanta with mid-run host-port tampering, an active link adversary,
# host-side apply/commit/rollback, controller agents writing node DRAM
# between quanta, and node copies handed to pool workers are exactly where
# a data race would hide (ctest regex covers the gtest-discovered Fleet*/
# QuantumPool*/HostileCampaign*/ReplayWindow*/FleetUpdate*/FleetController*/
# WarmBoot* cases plus the ci_hostile, ci_update and ci_fleetd gates).
cmake -B "$TSAN_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target fleet_test hostile_attest_test fleet_update_test fleetd_test \
  rng_test snapshot_test tlfleetd tlfw
ctest --test-dir "$TSAN_DIR" --output-on-failure \
  -R 'Fleet|QuantumPool|LinkFabric|DeriveDeviceSeed|SplitMix|tlfleet|Hostile|ReplayWindow|ControlWire|WarmBoot|ci_hostile|ci_update|ci_fleetd'
