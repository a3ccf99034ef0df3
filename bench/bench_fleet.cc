// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet executor throughput (DESIGN.md §13): aggregate simulated
// instructions per second for N-node fleets across host thread counts.
// The workload is a non-halting compute loop, so every node consumes its
// full run-quantum and the numbers measure executor scaling, not guest
// idling. Run via tools/run_benches.sh (emits BENCH_fleet.json).
//
// Note: scaling tops out at the host's physical core count; on a 1-core
// container every thread count measures the same serial throughput (minus
// pool overhead, which this bench also exposes).

#include <benchmark/benchmark.h>

#include <memory>

#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/isa/assembler.h"
#include "src/update/fw_container.h"

namespace trustlite {
namespace {

constexpr char kSpinGuest[] =
    "start:\n"
    "    movi r1, 0\n"
    "loop:\n"
    "    addi r1, r1, 1\n"
    "    jmp  loop\n";

void InstallSpinGuest(Fleet* fleet) {
  Result<AsmOutput> out = Assemble(kSpinGuest, 0x0003'0000);
  for (int i = 0; i < fleet->num_nodes(); ++i) {
    Platform& platform = fleet->node(i).platform();
    for (const AsmChunk& chunk : out->chunks) {
      platform.bus().HostWriteBytes(chunk.base, chunk.bytes);
    }
    platform.cpu().Reset(out->symbols.at("start"));
    platform.cpu().set_reg(kRegSp, 0x0004'0000);
    platform.ReleaseThreadAffinity();
  }
}

// Args: {nodes, host threads}.
void BM_FleetExecutor(benchmark::State& state) {
  FleetConfig config;
  config.nodes = static_cast<int>(state.range(0));
  config.topology = Topology::kStar;
  config.seed = 7;
  config.threads = static_cast<int>(state.range(1));
  config.quantum = 20'000;
  Fleet fleet(config);
  InstallSpinGuest(&fleet);

  const uint64_t start_insn = fleet.TotalInstructions();
  for (auto _ : state) {
    fleet.RunQuantum();
  }
  const uint64_t insns = fleet.TotalInstructions() - start_insn;
  state.SetItemsProcessed(static_cast<int64_t>(insns));
  state.counters["nodes"] = static_cast<double>(config.nodes);
  state.counters["threads"] = static_cast<double>(config.threads);
}

// UseRealTime: with worker threads doing the execution, process-CPU-time of
// the calling thread would overstate scaling wildly; wall clock is the
// honest throughput denominator.
BENCHMARK(BM_FleetExecutor)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({1024, 1})
    ->Args({1024, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Link-fabric delivery in isolation: a ring-like in-flight population
// (latency >> quantum, so hundreds of frames stay queued per destination)
// delivered quantum by quantum. The due-queue pops only what is due —
// before this the fabric re-scanned and re-sorted every in-flight frame
// per destination per quantum. Args: {destinations}.
void BM_LinkFabricDeliver(benchmark::State& state) {
  const int dsts = static_cast<int>(state.range(0));
  constexpr uint64_t kQuantum = 20'000;
  constexpr uint32_t kLatency = 400'000;  // 20 quanta in flight.
  LinkFabric fabric(7);
  for (int d = 0; d < dsts; ++d) {
    fabric.Connect(kVerifierPort, d, LinkParams{.latency_cycles = kLatency});
  }
  uint64_t now = 0;
  int64_t delivered = 0;
  std::vector<FleetMessage> scratch;
  for (auto _ : state) {
    for (int d = 0; d < dsts; ++d) {
      fabric.Send(kVerifierPort, d, now, "challenge-frame");
    }
    for (int d = 0; d < dsts; ++d) {
      delivered +=
          static_cast<int64_t>(fabric.DeliverInto(d, now, &scratch));
    }
    now += kQuantum;
  }
  state.SetItemsProcessed(delivered);
  state.counters["dsts"] = static_cast<double>(dsts);
  state.counters["in_flight"] = static_cast<double>(fabric.in_flight());
}

BENCHMARK(BM_LinkFabricDeliver)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// UART-chatty fleet with and without the TX batching horizon: every node
// trickles a byte every ~150 cycles, the shape that used to flood the
// fabric with tiny frames. The `frames` counter shows the coalescing;
// digests stay identical at any horizon. Args: {nodes, batch_quanta}.
constexpr char kChattyGuest[] =
    "start:\n"
    "    li   r1, 0xF0003000\n"
    "    movi r2, 'x'\n"
    "    movi r4, 0\n"
    "outer:\n"
    "    li   r3, 60\n"
    "delay:\n"
    "    addi r3, r3, -1\n"
    "    bne  r3, r4, delay\n"
    "    stw  r2, [r1]\n"
    "    jmp  outer\n";

void BM_FleetChattyUart(benchmark::State& state) {
  FleetConfig config;
  config.nodes = static_cast<int>(state.range(0));
  config.topology = Topology::kStar;
  config.seed = 7;
  config.threads = 1;
  config.quantum = 512;  // Small quantum: bursts span several quanta.
  config.harvest_batch_quanta = static_cast<uint32_t>(state.range(1));
  Fleet fleet(config);
  Result<AsmOutput> out = Assemble(kChattyGuest, 0x0003'0000);
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    Platform& platform = fleet.node(i).platform();
    for (const AsmChunk& chunk : out->chunks) {
      platform.bus().HostWriteBytes(chunk.base, chunk.bytes);
    }
    platform.cpu().Reset(out->symbols.at("start"));
    platform.cpu().set_reg(kRegSp, 0x0004'0000);
    platform.ReleaseThreadAffinity();
  }
  for (auto _ : state) {
    fleet.RunQuantum();
  }
  const LinkFabric::Stats stats = fleet.fabric().stats();
  state.SetItemsProcessed(static_cast<int64_t>(stats.payload_bytes));
  state.counters["frames"] = static_cast<double>(stats.sent);
  state.counters["nodes"] = static_cast<double>(config.nodes);
  state.counters["batch"] = static_cast<double>(config.harvest_batch_quanta);
}

BENCHMARK(BM_FleetChattyUart)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Unit(benchmark::kMillisecond);

// Fleet provisioning: N cold Secure Loader boots vs warm-boot cloning
// (boot node 0 once, snapshot, restore + patch per-device secrets on the
// other N-1 nodes; DESIGN.md §14). Args: {nodes}.
void BM_FleetProvision(benchmark::State& state, bool warm_boot) {
  for (auto _ : state) {
    state.PauseTiming();
    FleetConfig config;
    config.nodes = static_cast<int>(state.range(0));
    config.seed = 7;
    auto fleet = std::make_unique<Fleet>(config);
    FleetProvisionConfig prov;
    prov.warm_boot = warm_boot;
    state.ResumeTiming();

    Result<std::vector<NodeProvision>> provisions =
        ProvisionAttestationFleet(fleet.get(), prov);
    if (!provisions.ok()) {
      state.SkipWithError(provisions.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(provisions->size());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}

void BM_FleetProvisionCold(benchmark::State& state) {
  BM_FleetProvision(state, /*warm_boot=*/false);
}

void BM_FleetProvisionWarm(benchmark::State& state) {
  BM_FleetProvision(state, /*warm_boot=*/true);
}

BENCHMARK(BM_FleetProvisionCold)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FleetProvisionWarm)->Arg(64)->Unit(benchmark::kMillisecond);

// Staged firmware rollout end-to-end (DESIGN.md §16): warm-provision N
// nodes, resolve the initial attestation round (both untimed), then time
// the full campaign — per-node container signing, chunked transfer over
// the links, trial apply, re-attestation against the new golden and
// commit, canary wave first. Args: {nodes, canary_pct}.
void BM_UpdateCampaign(benchmark::State& state) {
  FirmwareContainerSpec spec;
  spec.fw_version = 2;
  spec.payload.resize(1024);
  for (size_t i = 0; i < spec.payload.size(); ++i) {
    spec.payload[i] = static_cast<uint8_t>(0x40 + 11 * i);
  }
  const Result<std::vector<uint8_t>> container = PackFirmware(spec);

  for (auto _ : state) {
    state.PauseTiming();
    FleetConfig config;
    config.nodes = static_cast<int>(state.range(0));
    config.seed = 7;
    config.quantum = 20'000;
    config.link.latency_cycles = 1'000;
    auto fleet = std::make_unique<Fleet>(config);
    FleetProvisionConfig prov;
    prov.warm_boot = true;
    prov.payload_capacity = static_cast<uint32_t>(spec.payload.size());
    Result<std::vector<NodeProvision>> provisions =
        ProvisionAttestationFleet(fleet.get(), prov);
    if (!provisions.ok()) {
      state.SkipWithError(provisions.status().ToString().c_str());
      return;
    }
    FleetAttestor attestor(fleet.get(), *provisions, AttestPolicy{});
    attestor.Begin();
    while (!attestor.Done()) {
      fleet->RunQuantum();
      attestor.OnQuantumBoundary();
    }
    UpdateCampaignConfig ucfg;
    ucfg.canary_pct = static_cast<int>(state.range(1));
    state.ResumeTiming();

    UpdateCampaign campaign(fleet.get(), &attestor, *container, ucfg);
    if (!campaign.Start().ok()) {
      state.SkipWithError("campaign start failed");
      return;
    }
    while (!campaign.Done()) {
      fleet->RunQuantum();
      campaign.OnQuantumBoundary();
    }
    if (!campaign.Succeeded()) {
      state.SkipWithError("campaign did not succeed");
      return;
    }
    benchmark::DoNotOptimize(campaign.transcript().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["canary_pct"] = static_cast<double>(state.range(1));
}

BENCHMARK(BM_UpdateCampaign)
    ->Args({64, 10})
    ->Args({64, 100})
    ->Args({256, 10})
    ->Args({256, 100})
    ->Unit(benchmark::kMillisecond);

// One tlfleetd re-attestation epoch over an admitted fleet (DESIGN.md
// §17): the idle window with health beacons flowing, a fresh challenge
// round over the roster, and the per-node verdict fold — the steady-state
// cost of the control plane. Warm provisioning and admission are untimed.
// Args: {nodes, host threads}.
void BM_FleetdReattestEpoch(benchmark::State& state) {
  FleetConfig config;
  config.nodes = static_cast<int>(state.range(0));
  config.seed = 7;
  config.threads = static_cast<int>(state.range(1));
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  auto fleet = std::make_unique<Fleet>(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(fleet.get(), prov);
  if (!provisions.ok()) {
    state.SkipWithError(provisions.status().ToString().c_str());
    return;
  }
  FleetdPolicy policy;
  policy.epoch_idle_quanta = 8;
  policy.beacon_every_quanta = 4;
  FleetController controller(fleet.get(), std::move(*provisions), policy);
  if (!controller.RunAdmission().ok()) {
    state.SkipWithError("admission failed");
    return;
  }
  for (auto _ : state) {
    const Status status = controller.RunReattestEpoch();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(config.threads);
}

BENCHMARK(BM_FleetdReattestEpoch)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({256, 1})
    ->Args({256, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// `nodes` warm attestation nodes, admitted, then left idle on one executor
// thread: each 2,000-cycle nanOS tick of a node is one secure-engine round
// trip (DESIGN.md §15, "The yield round trip") and nothing else runs. Null
// when admission fails.
std::unique_ptr<Fleet> AdmittedIdleFleet(int nodes) {
  FleetConfig config;
  config.nodes = nodes;
  config.seed = 7;
  auto fleet = std::make_unique<Fleet>(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(fleet.get(), prov);
  if (!provisions.ok()) {
    return nullptr;
  }
  FleetController controller(fleet.get(), std::move(*provisions),
                             FleetdPolicy{});
  if (!controller.RunAdmission().ok()) {
    return nullptr;
  }
  return fleet;
}

// Timer ticks taken so far, summed over the fleet's nodes.
uint64_t FleetTicks(Fleet& fleet) {
  uint64_t ticks = 0;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    ticks += fleet.node(i).platform().cpu().stats().interrupts;
  }
  return ticks;
}

// An idle node's host work per tick, as plain (not rate) user counters:
// retired instructions, full EA-MPU checks, bus route misses and data-window
// misses. They cover 100 quanta of a fresh one-node fleet, not the timed
// loop, whose iteration count depends on the host: the same build gives the
// same values on every host. Every idle node does the same work per tick.
void SetIdleTickCounters(benchmark::State& state) {
  const std::unique_ptr<Fleet> fleet = AdmittedIdleFleet(1);
  if (fleet == nullptr) {
    return;
  }
  Platform& platform = fleet->node(0).platform();
  const CpuStats before = platform.cpu().stats();
  const FastPathStats fp_before = platform.fast_path_stats();
  fleet->RunQuanta(100);
  const CpuStats& after = platform.cpu().stats();
  const FastPathStats fp = platform.fast_path_stats();
  const double ticks =
      static_cast<double>(after.interrupts - before.interrupts);
  const auto per_tick = [&](uint64_t count) {
    return ticks == 0 ? 0.0 : static_cast<double>(count) / ticks;
  };
  state.counters["insn_per_tick"] =
      per_tick(after.instructions - before.instructions);
  state.counters["mpu_checks_per_tick"] =
      per_tick(fp.mpu.checks - fp_before.mpu.checks);
  state.counters["route_misses_per_tick"] =
      per_tick(fp.bus.route_misses - fp_before.bus.route_misses);
  state.counters["window_misses_per_tick"] =
      per_tick(fp.data_window_misses - fp_before.data_window_misses);
}

// The idle round trips of N nodes: items are timer ticks over all nodes.
// Provisioning and admission are untimed. code_entries_per_node is the
// code-cache entries a node holds (128 bytes each): admission already ran
// the tick's code, so it does not depend on the iteration count.
void BM_FleetNodeIdleEpoch(benchmark::State& state) {
  const std::unique_ptr<Fleet> fleet =
      AdmittedIdleFleet(static_cast<int>(state.range(0)));
  if (fleet == nullptr) {
    state.SkipWithError("provisioning or admission failed");
    return;
  }
  const uint64_t start_ticks = FleetTicks(*fleet);
  for (auto _ : state) {
    fleet->RunQuanta(10);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(FleetTicks(*fleet) - start_ticks));
  uint64_t entries = 0;
  for (int i = 0; i < fleet->num_nodes(); ++i) {
    entries += fleet->node(i).platform().fast_path_stats().code_entries;
  }
  state.counters["nodes"] = static_cast<double>(fleet->num_nodes());
  state.counters["code_entries_per_node"] =
      static_cast<double>(entries) / fleet->num_nodes();
  SetIdleTickCounters(state);
}

BENCHMARK(BM_FleetNodeIdleEpoch)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// Snapshot-elasticity scale-up (DESIGN.md §17): clone K new nodes from a
// running admitted fleet — snapshot save, restore onto the new id, in-place
// re-key (attn code + PROM + Trustlet-Table measurement), re-attest, admit.
// Args: {base nodes, clones}.
void BM_NodeCloneScaleUp(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FleetConfig config;
    config.nodes = static_cast<int>(state.range(0));
    config.seed = 7;
    config.quantum = 20'000;
    config.link.latency_cycles = 1'000;
    auto fleet = std::make_unique<Fleet>(config);
    FleetProvisionConfig prov;
    prov.warm_boot = true;
    Result<std::vector<NodeProvision>> provisions =
        ProvisionAttestationFleet(fleet.get(), prov);
    if (!provisions.ok()) {
      state.SkipWithError(provisions.status().ToString().c_str());
      return;
    }
    FleetController controller(fleet.get(), std::move(*provisions),
                               FleetdPolicy{});
    if (!controller.RunAdmission().ok()) {
      state.SkipWithError("admission failed");
      return;
    }
    state.ResumeTiming();

    const Status status =
        controller.ScaleUp(static_cast<int>(state.range(1)));
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(controller.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["clones"] = static_cast<double>(state.range(1));
}

BENCHMARK(BM_NodeCloneScaleUp)
    ->Args({64, 8})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trustlite

BENCHMARK_MAIN();
