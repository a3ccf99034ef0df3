#!/usr/bin/env python3
"""Fleet benchmark of the TrustLite simulator: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload session|rollout|compute --seed N \
        --seconds S --trace 0|1

The first run builds the simulator library and perfbench/fleetbench.cc from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
fleetbench repeats the workload on fresh fleets built from the seed for S
seconds, each workload in its own process. This script checks the outputs
and the determinism of every repetition, aggregates them, and prints every
metric with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
exit code is 0 only when every check passed.

--nodes and --tamper shrink the fleet and sabotage nodes; they exist for
perfbench/smoke_test.py.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165

# Spans whose self time is a per-layer metric, named "<span>_s".
LAYER_SPANS = [
    "fleet.provision", "loader.boot", "fleet.run_quantum",
    "fleet.control.admission", "fleet.control.epoch", "fleet.control.push",
    "fleet.control.scale_up", "fleet.control.drain", "fleet.attest.pump",
    "fleet.update.pump", "fleet.digest",
]
# Spans that advance the fleet: the benchmark's own RunQuantum calls, or the
# controller phases that call it inside (session).
ADVANCE_SPANS = ["fleet.run_quantum"] + [s for s in LAYER_SPANS
                                         if s.startswith("fleet.control.")]


def ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics computed from one repetition's deterministic counters.
COUNTER_METRICS = {
    "cpu.trustlet_exc_per_kcycle":
        lambda c: ratio(1000 * c["trustlet_exc"], c["cycles"]),
    "cpu.irq_per_kcycle": lambda c: ratio(1000 * c["irqs"], c["cycles"]),
    "cpu.decode_miss_ratio":
        lambda c: ratio(c["decode_misses"],
                        c["decode_hits"] + c["decode_misses"]),
    "cpu.fusion_build_per_kinsn":
        lambda c: ratio(1000 * c["fusion_builds"], c["insn"]),
    "cpu.insn": lambda c: c["insn"],
    "cpu.ipc": lambda c: ratio(c["insn"], c["cycles"]),
    "cpu.fused_frac": lambda c: ratio(c["fusion_retired"], c["insn"]),
    "cpu.window_miss_ratio":
        lambda c: ratio(c["window_misses"],
                        c["window_hits"] + c["window_misses"]),
    "mpu.checks_per_insn": lambda c: ratio(c["mpu_checks"], c["insn"]),
    "mpu.subject_miss": lambda c: c["mpu_subject_misses"],
    "mpu.decision_miss": lambda c: c["mpu_decision_misses"],
    "mpu.fetch_miss": lambda c: c["mpu_fetch_misses"],
    "mem.route_miss": lambda c: c["bus_route_misses"],
    "fleet.quanta": lambda c: c["quanta"],
    "fleet.link.frames": lambda c: c["link_frames"],
    "fleet.link.bytes": lambda c: c["link_bytes"],
    "fleet.link.dropped": lambda c: c["link_dropped"],
    "fleet.attest.retries": lambda c: c["attest_retries"],
    "fleet.update.committed": lambda c: c["update_committed"],
    "fleet.control.admitted": lambda c: c["control_admitted"],
}

# What phase_s samples on each workload, under the name the operator knows.
PHASE_NAMES = {"session": "epoch_s", "rollout": "rollout_s",
               "compute": "batch_s"}


def fail(message):
    """Exits non-zero without printing a result."""
    sys.exit(f"perfbench: {message}")


def run_child(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group, which is killed on a timeout or
    an interruption, and waits for it. Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            fail(f"timed out after {timeout} s: {' '.join(cmd)}")
        raise
    return proc.returncode, out


def build():
    """Builds fleetbench from source; returns its path."""
    if not (ROOT / "src" / "fleet" / "fleet.h").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(build_dir), "--target", "fleetbench",
              "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")
    return build_dir / "fleetbench"


def run_fleetbench(binary, args, trace_out):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nodes", str(args.nodes), "--tamper", str(args.tamper)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)
    if code != 0:
        fail(f"fleetbench exited with code {code}")
    run = {"rep": [], "setup": []}
    for line in out.splitlines():
        kind, _, payload = line.partition(" ")
        if kind in ("rep", "setup"):
            run[kind].append(json.loads(payload))
        elif kind in ("host", "done"):
            run[kind] = json.loads(payload)
    if "host" not in run or "done" not in run or not run["rep"]:
        fail("fleetbench output is incomplete")
    return run


def outcome(rep):
    """What every run of one build and seed must reproduce exactly."""
    return {"digest": rep["digest"], "sim_cycles": rep["sim_cycles"],
            "counters": rep["counters"]}


def differing(a, b):
    names = [k for k in ("digest", "sim_cycles") if a[k] != b[k]]
    names += sorted(k for k in a["counters"].keys() | b["counters"].keys()
                    if a["counters"].get(k) != b["counters"].get(k))
    return ", ".join(names)


def check_determinism(reps, binary, key):
    """Returns one failure per repetition that disagrees with the first, and
    one if an earlier run of this build with this key disagreed."""
    failures = []
    first = outcome(reps[0])
    for rep in reps[1:]:
        diff = differing(first, outcome(rep))
        if diff:
            failures.append(f"rep {rep['rep']} differs from rep 0 in {diff}")
    path = binary.parent / "determinism.json"
    stat = binary.stat()
    build_id = f"{stat.st_size}:{stat.st_mtime_ns}"
    record = json.loads(path.read_text()) if path.is_file() else {}
    if record.get("build") != build_id:
        record = {"build": build_id, "runs": {}}
    earlier = record["runs"].setdefault(key, first)
    diff = differing(earlier, first)
    if diff:
        failures.append(f"differs from an earlier run of this build in {diff}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return failures


def spread(values):
    return f"[{min(values):.6g} .. {max(values):.6g}] n={len(values)}"


def row(name, value, unit, note=""):
    text = str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"  {name:<28} {text:<14} {unit:<14} {note}".rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["session", "rollout", "compute"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--nodes", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--tamper", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    binary = build()
    trace_out = None
    if args.trace:
        trace_out = binary.parent / "spans" / (
            f"{args.workload}-seed{args.seed}.json")
        trace_out.parent.mkdir(exist_ok=True)
    run = run_fleetbench(binary, args, trace_out)
    host, reps = run["host"], run["rep"]
    timed = [r for r in reps if not r["warmup"]]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    median = statistics.median

    key = f"{args.workload}/seed={args.seed}/nodes={args.nodes}" \
          f"/tamper={args.tamper}"
    determinism = check_determinism(reps, binary, key)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed_ops"] for r in reps) + len(determinism)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{host['nodes']} nodes, {host['threads']} executor thread(s), "
          f"1 warm-up + {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions")
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} "
          f"sha256={host['sha256_engine']} build={host['build_type']} "
          f"compiler={host['compiler']!r}")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED rep {rep['rep']}: {failure}")
    for failure in determinism:
        print(f"FAILED determinism: {failure}")

    walls = [r["wall_s"] for r in untraced]
    setups = [r["setup_s"] for r in untraced + run["setup"]]
    phases = [s for r in untraced for s in r["phase_s"]]
    rates = [r["counters"]["cycles"] / r["wall_s"] for r in untraced]
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "node_cycles_per_s": median(rates),
        "phase_s": median(phases),
        "peak_rss_mb": run["done"]["peak_rss_kb"] / 1024,
    }
    counters = reps[0]["counters"]
    print("end-to-end, untraced (median [min .. max] n=samples):")
    row("setup_s", end_to_end["setup_s"], "s", spread(setups))
    row("wall_s", end_to_end["wall_s"], "s", spread(walls))
    row("node_cycles_per_s", end_to_end["node_cycles_per_s"],
        "node-cycles/s", spread(rates))
    row(PHASE_NAMES[args.workload], end_to_end["phase_s"], "s",
        spread(phases))
    row("phase_s", end_to_end["phase_s"], "s",
        f"(= {PHASE_NAMES[args.workload]})")
    row("sim_cycles", reps[0]["sim_cycles"], "cycles", "per repetition")
    row("peak_rss_mb", end_to_end["peak_rss_mb"], "MiB", "whole process")
    row("ops", attempted, "count", "all repetitions")
    row("failed_ops", failed, "count", "all repetitions")
    print("counters, per repetition (identical in every repetition):")
    print("  " + " ".join(f"{k}={v}" for k, v in sorted(counters.items())))

    metrics = end_to_end
    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        metrics = {f"{s}_s": median(r["self_s"].get(s, 0.0) for r in traced)
                   for s in LAYER_SPANS}
        metrics["cpu.host_ns_per_insn"] = median(
            ratio(1e9 * sum(r["self_s"].get(s, 0.0) for s in ADVANCE_SPANS),
                  r["counters"]["insn"]) for r in traced)
        metrics.update({name: fn(counters)
                        for name, fn in COUNTER_METRICS.items()})
        traced_wall = median(r["wall_s"] for r in traced)
        metrics["trace_overhead_pct"] = 100 * (traced_wall / median(walls) - 1)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("per-layer, traced repetitions (median):")
        for name, value in metrics.items():
            row(name, value, units.get(name, "?"))
        shares = {}
        for rep in traced:
            total = sum(rep["self_s"].values())
            for span, seconds in rep["self_s"].items():
                shares.setdefault(span, []).append(100 * seconds / total)
        print("self-time shares of set-up + body, traced repetitions "
              "(median %):")
        for span, share in sorted(shares.items(),
                                  key=lambda item: -median(item[1])):
            print(f"  {span:<28} {median(share):6.2f} %")
        print(f"spans: {trace_out}")

    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(declared) != set(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {kind}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
