// Copyright 2026 The TrustLite Reproduction Authors.
//
// Engineering benchmark (google-benchmark): host-side throughput of the
// TL32 simulator with and without EA-MPU checks, exception-entry cost, and
// assembler throughput. Not a paper experiment — this tracks the
// simulation substrate itself.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_engine.h"
#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/observe/profiler.h"
#include "src/platform/platform.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

std::vector<uint8_t> WorkloadImage(uint32_t* entry) {
  Result<AsmOutput> out = Assemble(R"(
.org 0x30000
start:
    li  r1, 0x32000
    movi r2, 0
loop:
    stw r2, [r1]
    ldw r3, [r1]
    add r4, r3, r2
    mul r5, r4, r3
    addi r2, r2, 1
    jmp loop
)");
  uint32_t base = 0;
  std::vector<uint8_t> image = out->Flatten(&base);
  *entry = base;
  return image;
}

void BM_InterpreterNoMpu(benchmark::State& state) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  uint32_t entry = 0;
  platform.bus().HostWriteBytes(0x30000, WorkloadImage(&entry));
  platform.cpu().Reset(entry);
  for (auto _ : state) {
    platform.Run(10000);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform.cpu().stats().instructions));
}
BENCHMARK(BM_InterpreterNoMpu);

// WorkloadImage under an enabled EA-MPU with 16 regions, none covering the
// workload, so every fetch and data access runs the full protection check
// path until the fast-path caches take over.
std::unique_ptr<Platform> MpuWorkload(const PlatformConfig& config = {}) {
  auto platform = std::make_unique<Platform>(config);
  Bus& bus = platform->bus();
  for (int i = 0; i < 16; ++i) {
    const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                         static_cast<uint32_t>(i) * kMpuRegionStride;
    bus.HostWriteWord(reg + 0, 0x40000 + static_cast<uint32_t>(i) * 0x100);
    bus.HostWriteWord(reg + 4, 0x40080 + static_cast<uint32_t>(i) * 0x100);
    bus.HostWriteWord(reg + 8, kMpuAttrEnable);
  }
  bus.HostWriteWord(kMpuMmioBase + kMpuRegCtrl, kMpuCtrlEnable);
  uint32_t entry = 0;
  bus.HostWriteBytes(0x30000, WorkloadImage(&entry));
  platform->cpu().Reset(entry);
  return platform;
}

// Deterministic work counters of the fast run loop, as plain (not rate)
// user counters: fused instructions per dispatched group, the fused share
// of retired instructions, the decode-miss ratio and full EA-MPU checks per
// instruction. They cover the first 100 Run(10000) calls of a fresh
// platform from `make`, not the timed loop, whose iteration count depends
// on the host: the same build gives the same values on every host.
template <typename Make>
void SetDispatchCounters(benchmark::State& state, Make make) {
  const std::unique_ptr<Platform> platform = make();
  const CpuStats before = platform->cpu().stats();
  const uint64_t checks_before = platform->fast_path_stats().mpu.checks;
  for (int i = 0; i < 100; ++i) {
    platform->Run(10000);
  }
  const CpuStats& after = platform->cpu().stats();
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t insn = after.instructions - before.instructions;
  const uint64_t fused = after.fusion_retired - before.fusion_retired;
  const uint64_t misses = after.decode_misses - before.decode_misses;
  state.counters["insn_per_group"] =
      ratio(fused, after.fusion_groups - before.fusion_groups);
  state.counters["fused_frac"] = ratio(fused, insn);
  state.counters["decode_miss_ratio"] =
      ratio(misses, after.decode_hits - before.decode_hits + misses);
  state.counters["mpu_checks_per_insn"] =
      ratio(platform->fast_path_stats().mpu.checks - checks_before, insn);
}

void BM_InterpreterWithMpu(benchmark::State& state) {
  const std::unique_ptr<Platform> platform = MpuWorkload();
  for (auto _ : state) {
    platform->Run(10000);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform->cpu().stats().instructions));
  SetDispatchCounters(state, [] { return MpuWorkload(); });
}
BENCHMARK(BM_InterpreterWithMpu);

// Same workload and MPU layout as BM_InterpreterWithMpu above with
// superinstruction fusion switched off, isolating the fusion layer's
// contribution on top of the code cache's decodes (DESIGN.md §15).
void BM_InterpreterWithMpuNoFusion(benchmark::State& state) {
  PlatformConfig config;
  config.fusion = false;
  const std::unique_ptr<Platform> platform = MpuWorkload(config);
  for (auto _ : state) {
    platform->Run(10000);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform->cpu().stats().instructions));
}
BENCHMARK(BM_InterpreterWithMpuNoFusion);

// Same workload with the observability layer live: a TrustletProfiler
// registered as an event sink, so every retire takes the InsnEvent path
// (hub dispatch + lane lookup + accounting). The gap between this and
// BM_InterpreterWithMpu is the tracing-on cost; with no sink attached the
// event pointers are null and BM_InterpreterWithMpu itself is the
// tracing-off number (DESIGN.md §12 overhead budget).
void BM_InterpreterWithMpuProfiled(benchmark::State& state) {
  const std::unique_ptr<Platform> platform = MpuWorkload();
  TrustletProfiler profiler;
  profiler.AddLane("workload", 0x30000, 0x30100);
  platform->AddEventSink(&profiler);
  for (auto _ : state) {
    platform->Run(10000);
  }
  platform->RemoveEventSink(&profiler);
  state.SetItemsProcessed(
      static_cast<int64_t>(platform->cpu().stats().instructions));
}
BENCHMARK(BM_InterpreterWithMpuProfiled);

// Worst case for the fast-path caches: execution alternates between many
// subject regions (one trustlet-like code region per chunk), each touching
// its own data region before handing control to the next region's entry
// vector. Every chunk transition changes the MPU subject, thrashing the
// single-entry subject/coverage caches while the decision cache must hold
// the full (subject, object) working set.
void BM_MpuCacheThrash(benchmark::State& state) {
  constexpr int kChunks = 8;
  constexpr uint32_t kCodeBase = 0x34000;
  constexpr uint32_t kCodeStride = 0x400;
  constexpr uint32_t kDataBase = 0x36000;
  constexpr uint32_t kDataStride = 0x80;

  Platform platform;
  Bus& bus = platform.bus();
  auto set_region = [&](int index, uint32_t base, uint32_t end,
                        uint32_t attr) {
    const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                         static_cast<uint32_t>(index) * kMpuRegionStride;
    bus.HostWriteWord(reg + 0, base);
    bus.HostWriteWord(reg + 4, end);
    bus.HostWriteWord(reg + 8, attr);
  };
  auto set_rule = [&](int index, uint32_t subject, uint32_t object, bool r,
                      bool w, bool x) {
    bus.HostWriteWord(
        kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4,
        EncodeMpuRule(subject, object, r, w, x));
  };

  std::string source;
  for (int i = 0; i < kChunks; ++i) {
    const uint32_t code = kCodeBase + static_cast<uint32_t>(i) * kCodeStride;
    const uint32_t data = kDataBase + static_cast<uint32_t>(i) * kDataStride;
    set_region(i, code, code + 0x40, kMpuAttrEnable | kMpuAttrCode);
    set_region(kChunks + i, data, data + 0x40, kMpuAttrEnable);
    const uint32_t subject = static_cast<uint32_t>(i);
    set_rule(3 * i + 0, subject, subject, false, false, true);  // Self-exec.
    set_rule(3 * i + 1, subject, static_cast<uint32_t>((i + 1) % kChunks),
             false, false, true);  // Next chunk's entry vector.
    set_rule(3 * i + 2, subject, static_cast<uint32_t>(kChunks + i), true,
             true, false);  // Own data region.
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ".org 0x%x\nchunk%d:\n    li r1, 0x%x\n    stw r2, [r1]\n"
                  "    ldw r3, [r1]\n    addi r2, r2, 1\n    jmp chunk%d\n",
                  code, i, data, (i + 1) % kChunks);
    source += buf;
  }
  bus.HostWriteWord(kMpuMmioBase + kMpuRegCtrl, kMpuCtrlEnable);

  Result<AsmOutput> out = Assemble(source);
  for (const AsmChunk& chunk : out->chunks) {
    bus.HostWriteBytes(chunk.base, chunk.bytes);
  }
  platform.cpu().Reset(kCodeBase);
  for (auto _ : state) {
    platform.Run(10000);
  }
  if (platform.cpu().halted()) {
    state.SkipWithError("workload trapped");
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform.cpu().stats().instructions));
}
BENCHMARK(BM_MpuCacheThrash);

// Fault path: an unprotected loop repeatedly loads from a protected region
// with no matching rule; every access latches an MPU fault, enters the
// exception engine, and the handler acknowledges the fault and IRETs back
// to the faulting instruction. Measures fault latch + exception entry +
// handler + IRET round trips.
void BM_MpuFaultPath(benchmark::State& state) {
  Platform platform;
  Bus& bus = platform.bus();
  // A protected region nobody may touch.
  const uint32_t reg = kMpuMmioBase + kMpuRegionBank;
  bus.HostWriteWord(reg + 0, 0x38000);
  bus.HostWriteWord(reg + 4, 0x38100);
  bus.HostWriteWord(reg + 8, kMpuAttrEnable);
  bus.HostWriteWord(kMpuMmioBase + kMpuRegCtrl, kMpuCtrlEnable);

  char src[256];
  std::snprintf(src, sizeof(src), R"(
.org 0x30000
start:
    li r1, 0x38000
    li r4, 0x%x
fault_loop:
    ldw r3, [r1]
handler:
    addi sp, sp, 4
    stw r0, [r4]
    iret
)",
                kMpuMmioBase + kMpuRegFaultInfo);
  Result<AsmOutput> out = Assemble(src);
  uint32_t base = 0;
  bus.HostWriteBytes(0x30000, out->Flatten(&base));
  bus.HostWriteWord(kSysCtlBase + kSysCtlRegHandlerBase, out->symbols.at("handler"));
  platform.cpu().Reset(out->symbols.at("start"));
  platform.cpu().set_reg(kRegSp, 0x3F000);
  for (auto _ : state) {
    platform.Run(10000);
  }
  if (platform.cpu().halted()) {
    state.SkipWithError("workload trapped");
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform.cpu().stats().exceptions));
}
BENCHMARK(BM_MpuFaultPath);

// nanOS (`os`) preempting two trustlets that run `body[i]`, code at 0x11000
// and 0x13000, data at 0x12000 and 0x14000, booted by the Secure Loader.
std::unique_ptr<Platform> PreemptivePlatform(const NanosConfig& os,
                                             const std::string body[2]) {
  auto platform = std::make_unique<Platform>();
  SystemImage image;
  for (int i = 0; i < 2; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = 0x11000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_addr = 0x12000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = body[i];
    image.Add(*BuildTrustlet(spec));
  }
  image.Add(*BuildNanos(os));
  (void)platform->InstallImage(image);
  (void)platform->BootAndLaunch();
  return platform;
}

// Full system: nanOS + 2 trustlets under a fast scheduler tick.
std::unique_ptr<Platform> BusyTrustlets() {
  NanosConfig os;
  os.timer_period = 500;
  const std::string body = "tl_main:\nloop:\n    addi r1, r1, 1\n    jmp loop\n";
  const std::string bodies[2] = {body, body};
  return PreemptivePlatform(os, bodies);
}

void BM_PreemptiveSystem(benchmark::State& state) {
  const std::unique_ptr<Platform> platform = BusyTrustlets();
  for (auto _ : state) {
    platform->Run(10000);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform->cpu().stats().instructions));
  SetDispatchCounters(state, BusyTrustlets);
}
BENCHMARK(BM_PreemptiveSystem);

// The fleet benchmark's `compute` node at seed 42 (a copy of
// perfbench/fleetbench.cc's ComputeImage): nanOS with its default tick and
// two trustlets running a load/store/ALU loop over their own EA-MPU data
// regions, the multiplier drawn from the seed. Every iteration stores inside
// a fused group, so the run loop re-compares the group's remaining words
// mid-group.
std::unique_ptr<Platform> ComputeNode() {
  constexpr uint64_t kSeed = 42;
  std::string bodies[2];
  for (int i = 0; i < 2; ++i) {
    char body[320];
    std::snprintf(body, sizeof(body),
                  "tl_main:\n"
                  "    li   r4, TL_DATA\n"
                  "    li   r5, 0x%08x\n"
                  "    movi r1, 0\n"
                  "loop:\n"
                  "    ldw  r2, [r4 + 4]\n"
                  "    add  r2, r2, r5\n"
                  "    mul  r3, r2, r1\n"
                  "    stw  r3, [r4 + 4]\n"
                  "    addi r1, r1, 1\n"
                  "    stw  r1, [r4]\n"
                  "    jmp  loop\n",
                  static_cast<uint32_t>(DeriveDeviceSeed(
                      kSeed, static_cast<uint32_t>(i))) |
                      1u);
    bodies[i] = body;
  }
  return PreemptivePlatform(NanosConfig{}, bodies);
}

void BM_PreemptiveLoadStore(benchmark::State& state) {
  const std::unique_ptr<Platform> platform = ComputeNode();
  for (auto _ : state) {
    platform->Run(10000);
  }
  if (platform->cpu().halted()) {
    state.SkipWithError("workload trapped");
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(platform->cpu().stats().instructions));
  SetDispatchCounters(state, ComputeNode);
}
BENCHMARK(BM_PreemptiveLoadStore);

void BM_Assembler(benchmark::State& state) {
  NanosConfig config;
  const std::string source = NanosSource(config);
  for (auto _ : state) {
    Result<AsmOutput> out = Assemble(source, config.code_addr);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_Assembler);

// Host-side SHA-256 hot path (attestation measurements, fleet digests,
// snapshot state digests): single-stream throughput of the resolved engine
// (SHA-NI or scalar).
void BM_HostSha256(benchmark::State& state) {
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  for (auto _ : state) {
    Sha256Digest digest = Sha256Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.SetLabel(Sha256EngineName());
}
BENCHMARK(BM_HostSha256);

}  // namespace
}  // namespace trustlite

BENCHMARK_MAIN();
