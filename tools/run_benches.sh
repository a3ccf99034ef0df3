#!/usr/bin/env bash
# Runs the simulator bench suite and emits BENCH_sim.json for trend
# tracking (google-benchmark JSON format, one file per run), plus
# BENCH_fleet.json from the fleet-executor scaling bench (DESIGN.md §13).
# The simulator suite runs 5 repetitions per benchmark, pinned to one CPU
# when taskset exists, and records only their aggregates (mean, median,
# stddev, cv); its summary lines compare medians.
#
# usage: tools/run_benches.sh [build-dir] [out.json] [fleet-out.json]
#   BENCH_MIN_TIME   per-benchmark min time in seconds (default 0.2)
#   BENCH_FILTER     --benchmark_filter regex (default: all)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_sim.json}"
FLEET_OUT="${3:-BENCH_fleet.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"
FILTER="${BENCH_FILTER:-.}"

BIN="$BUILD_DIR/bench/bench_sim_throughput"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

PIN=()
if command -v taskset > /dev/null; then
  PIN=(taskset -c 0)
fi
"${PIN[@]}" "$BIN" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

echo "wrote $OUT"

# Interpreter summary lines against the straight-line BM_InterpreterWithMpu,
# each from the median of the repetitions, with each row's coefficient of
# variation (cv) beside it:
# - observability overhead, tracing on (BM_InterpreterWithMpuProfiled) vs
#   off. Budget: tracing off must be free (<1%); tracing on may cost.
# - per-instruction interrupt cost: BM_PreemptiveSystem runs nanOS and two
#   busy trustlets with IF set under a 500-cycle tick. A ratio well below 1
#   means the run loop pays for interrupts per instruction, not per event.
# - BM_PreemptiveLoadStore, the fleet benchmark's compute node: stores
#   inside fused groups, under nanOS's default tick.
awk '
  /"name": / {
    name = $2 ~ /_(median|cv)",?$/ ? $2 : ""
    gsub(/[",]/, "", name)
  }
  /"items_per_second"/ && name != "" {
    gsub(/[^0-9.e+-]/, "", $2)
    v[name] = $2 + 0
    name = ""
  }
  function row(b) {
    return sprintf("%.3g insn/s (cv %.1f%%)", v[b "_median"], 100 * v[b "_cv"])
  }
  END {
    s = "BM_InterpreterWithMpu"
    if (v[s "_median"] <= 0) {
      exit
    }
    p = "BM_InterpreterWithMpuProfiled"
    if (v[p "_median"] > 0) {
      printf "tracing off: %s   tracing on: %s   on/off: %.1f%%\n",
             row(s), row(p), 100.0 * v[p "_median"] / v[s "_median"]
    }
    p = "BM_PreemptiveSystem"
    if (v[p "_median"] > 0) {
      printf "preemptive: %s   straight-line: %s   preemptive/straight: %.2f\n",
             row(p), row(s), v[p "_median"] / v[s "_median"]
    }
    p = "BM_PreemptiveLoadStore"
    if (v[p "_median"] > 0) {
      printf "preemptive-load-store: %s   straight-line: %s   preemptive-load-store/straight: %.2f\n",
             row(p), row(s), v[p "_median"] / v[s "_median"]
    }
  }
' "$OUT"

# Fleet executor scaling (BM_FleetExecutor: nodes x host threads). Scaling
# tops out at the host's physical core count; the JSON records the curve
# either way for trend tracking.
FLEET_BIN="$BUILD_DIR/bench/bench_fleet"
if [[ -x "$FLEET_BIN" ]]; then
  "$FLEET_BIN" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$FLEET_OUT" \
    --benchmark_out_format=json
  echo "wrote $FLEET_OUT (host cores: $(nproc))"

  # Warm-boot provisioning summary (BM_FleetProvisionCold/Warm at 64
  # nodes): snapshot cloning must beat N cold Secure Loader boots by >=5x
  # (DESIGN.md §14; EXPERIMENTS.md warm-boot row).
  awk '
    /"name": "BM_FleetProvisionCold\/64"/ { want = 1 }
    /"name": "BM_FleetProvisionWarm\/64"/ { want = 2 }
    /"real_time"/ && want {
      gsub(/[^0-9.e+]/, "", $2)
      ms[want] = $2 + 0
      want = 0
    }
    END {
      if (ms[1] > 0 && ms[2] > 0) {
        printf "provision 64 nodes: cold %.1f ms   warm %.1f ms   speedup: %.1fx\n",
               ms[1], ms[2], ms[1] / ms[2]
      }
    }
  ' "$FLEET_OUT"

  # Update-campaign summary (BM_UpdateCampaign at 256 nodes): staged
  # canary-first rollout vs single-stage, wall-clock per full campaign
  # (DESIGN.md §16).
  awk '
    /"name": "BM_UpdateCampaign\/256\/10"/  { want = 1 }
    /"name": "BM_UpdateCampaign\/256\/100"/ { want = 2 }
    /"real_time"/ && want {
      gsub(/[^0-9.e+]/, "", $2)
      ms[want] = $2 + 0
      want = 0
    }
    END {
      if (ms[1] > 0 && ms[2] > 0) {
        printf "update 256 nodes: canary-10%% %.1f ms   single-stage %.1f ms\n",
               ms[1], ms[2]
      }
    }
  ' "$FLEET_OUT"
else
  echo "note: $FLEET_BIN not built; skipping BENCH_fleet.json" >&2
fi
