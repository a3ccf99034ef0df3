// Copyright 2026 The TrustLite Reproduction Authors.
// Observability subsystem tests (DESIGN.md §12): lane mapping, the
// per-trustlet profiler replaying the paper's Fig. 6 preemptive schedule
// (nanOS + 2 trustlets) against the Sec. 5.4 cycle constants, the Chrome
// trace-event exporter (golden file + schema), the JSON validator, and the
// reset semantics of CPU/tracer/profiler telemetry.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/observe/chrome_trace.h"
#include "src/platform/observe/json.h"
#include "src/platform/observe/lanes.h"
#include "src/platform/observe/profiler.h"
#include "src/platform/platform.h"
#include "src/platform/trace.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

void LoadAt(Platform& platform, const std::string& source, uint32_t origin) {
  Result<AsmOutput> out = Assemble(source, origin);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
}

// ---------------------------------------------------------------------------
// JSON validator.

TEST(JsonValidatorTest, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(JsonParses("{}"));
  EXPECT_TRUE(JsonParses("[]"));
  EXPECT_TRUE(JsonParses("  {\"a\": [1, 2.5, -3e4, true, false, null]}  "));
  EXPECT_TRUE(JsonParses("{\"nested\": {\"deep\": [[[{\"x\": \"y\"}]]]}}"));
  EXPECT_TRUE(JsonParses("\"bare string\""));
  EXPECT_TRUE(JsonParses("42"));
  EXPECT_TRUE(
      JsonParses("{\"esc\": \"a\\\"b\\\\c\\n\\t\\u00e9\", \"u\": \"\\u0041\"}"));
}

TEST(JsonValidatorTest, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(JsonParses("", &error));
  EXPECT_FALSE(JsonParses("{", &error));
  EXPECT_FALSE(JsonParses("{} trailing", &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(JsonParses("{\"a\": }"));
  EXPECT_FALSE(JsonParses("[1, 2,]"));         // Trailing comma.
  EXPECT_FALSE(JsonParses("{\"a\" 1}"));       // Missing colon.
  EXPECT_FALSE(JsonParses("tru"));             // Truncated literal.
  EXPECT_FALSE(JsonParses("\"bad \\x esc\"")); // Unknown escape.
  EXPECT_FALSE(JsonParses("\"unterminated"));
  EXPECT_FALSE(JsonParses("01"));              // Leading zero.
  EXPECT_FALSE(JsonParses("{'a': 1}"));        // Single quotes.
}

TEST(JsonValidatorTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(JsonParses(deep, &error));
  EXPECT_NE(error.find("nest"), std::string::npos);
  // Depth just under the cap is fine.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += '[';
  for (int i = 0; i < 32; ++i) ok += ']';
  EXPECT_TRUE(JsonParses(ok));
}

// ---------------------------------------------------------------------------
// Lane map.

TEST(LaneMapTest, MapsAddressesWithCatchAllFallback) {
  LaneMap map;
  EXPECT_EQ(map.num_lanes(), 1);  // Catch-all lane 0 always exists.
  const int a = map.AddLane("a", 0x1000, 0x2000);
  const int b = map.AddLane("b", 0x2000, 0x2800, /*is_os=*/true);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(map.LaneFor(0x0FFC), 0);
  EXPECT_EQ(map.LaneFor(0x1000), a);  // Base inclusive.
  EXPECT_EQ(map.LaneFor(0x1FFC), a);
  EXPECT_EQ(map.LaneFor(0x2000), b);  // End exclusive for `a`.
  EXPECT_EQ(map.LaneFor(0x2800), 0);
  EXPECT_TRUE(map.lane(b).is_os);
  // Memoized repeat lookups stay correct.
  EXPECT_EQ(map.LaneFor(0x1004), a);
  EXPECT_EQ(map.LaneFor(0x1004), a);
}

// ---------------------------------------------------------------------------
// Fig. 6 profiler replay: nanOS + two preemptively scheduled trustlets.

struct PreemptiveSystem {
  Platform platform;
  LoadReport report;
};

// Replicates the paper-eval scenario (Fig. 6): two trustlets spinning under
// nanOS round-robin scheduling with a fast timer tick. With `t0_sleeps`, T0
// counts once per tick and sleeps in `wfi` in between.
std::unique_ptr<PreemptiveSystem> BuildPreemptiveSystem(
    uint32_t timer_period, bool t0_sleeps = false) {
  auto sys = std::make_unique<PreemptiveSystem>();
  SystemImage image;
  for (int i = 0; i < 2; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = 0x11000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_addr = 0x12000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = "tl_main:\nloop:\n    addi r1, r1, 1\n";
    if (i == 0 && t0_sleeps) {
      spec.body += "    wfi\n";
    }
    spec.body += "    jmp loop\n";
    image.Add(*BuildTrustlet(spec));
  }
  NanosConfig os_config;
  os_config.timer_period = timer_period;
  image.Add(*BuildNanos(os_config));
  if (!sys->platform.InstallImage(image).ok()) return nullptr;
  Result<LoadReport> report = sys->platform.BootAndLaunch();
  if (!report.ok()) return nullptr;
  sys->report = *report;
  return sys;
}

TEST(ProfilerTest, Fig6ScheduleReproducesSec54EntryCosts) {
  auto sys = BuildPreemptiveSystem(/*timer_period=*/500);
  ASSERT_NE(sys, nullptr);
  Platform& platform = sys->platform;

  TrustletProfiler profiler;
  profiler.ConfigureFromReport(*platform.mpu(), sys->report);
  ASSERT_EQ(profiler.num_lanes(), 4);  // untrusted + T0 + T1 + nanOS.
  platform.AddEventSink(&profiler);
  const uint64_t cycles_before = platform.cpu().cycles();

  platform.Run(20000);
  platform.RemoveEventSink(&profiler);
  const uint64_t cycle_delta = platform.cpu().cycles() - cycles_before;

  // Sec. 5.4 constants from the default cycle model.
  const CycleModel model = PlatformConfig().cycles;
  const uint64_t os_entry_cost = model.exception_base + model.secure_detect;
  const uint64_t trustlet_entry_cost = model.exception_base +
                                       model.secure_detect +
                                       model.secure_state_save +
                                       model.secure_clear_and_sp;
  EXPECT_EQ(os_entry_cost, 23u);
  EXPECT_EQ(trustlet_entry_cost, 42u);

  int os_lanes = 0;
  int trustlet_lanes = 0;
  uint64_t lane_cycle_sum = 0;
  uint64_t trustlet_preemptions = 0;
  for (int i = 0; i < profiler.num_lanes(); ++i) {
    const LaneProfile& lane = profiler.lane(i);
    lane_cycle_sum += lane.cycles;
    // Clean schedule: no protection faults anywhere.
    EXPECT_EQ(lane.mpu_faults, 0u) << lane.name;
    if (i == 0) {
      // Nothing executes outside the loaded code regions.
      EXPECT_EQ(lane.instructions, 0u);
      EXPECT_EQ(lane.cycles, 0u);
      continue;
    }
    const uint64_t displacements = lane.interrupts + lane.exceptions;
    if (lane.is_os) {
      ++os_lanes;
      // Interrupting the OS takes the secure-detect path but no full save.
      EXPECT_EQ(lane.entry_cycles, displacements * os_entry_cost) << lane.name;
      EXPECT_EQ(lane.secure_entries, 0u) << lane.name;
      EXPECT_GT(lane.instructions, 0u) << lane.name;
    } else {
      ++trustlet_lanes;
      // Every preemption of a running trustlet pays the full 42-cycle
      // secure entry (Sec. 5.4: save all-but-SP, clear GPRs, park SP in
      // the Trustlet Table).
      EXPECT_EQ(lane.entry_cycles, displacements * trustlet_entry_cost)
          << lane.name;
      EXPECT_EQ(lane.secure_entries, displacements) << lane.name;
      EXPECT_GT(lane.secure_entries, 0u) << lane.name;
      EXPECT_GT(lane.instructions, 0u) << lane.name;
      trustlet_preemptions += lane.secure_entries;
    }
  }
  EXPECT_EQ(os_lanes, 1);
  EXPECT_EQ(trustlet_lanes, 2);
  // The round-robin actually alternated: many preemptions in the window.
  EXPECT_GT(trustlet_preemptions, 10u);

  // Accounting invariant: with no faults in the window, every cycle the CPU
  // charged lands in exactly one lane.
  EXPECT_EQ(lane_cycle_sum, cycle_delta);
  EXPECT_EQ(profiler.total_cycles(), cycle_delta);
  EXPECT_EQ(profiler.os_cycles() + profiler.trustlet_cycles() +
                profiler.untrusted_cycles(),
            profiler.total_cycles());

  const std::string table = profiler.ToString();
  EXPECT_NE(table.find("os"), std::string::npos);
  EXPECT_NE(table.find("split:"), std::string::npos);
}

TEST(ProfilerTest, SleepingTrustletCyclesLandInItsLane) {
  auto sys = BuildPreemptiveSystem(/*timer_period=*/500, /*t0_sleeps=*/true);
  ASSERT_NE(sys, nullptr);
  Platform& platform = sys->platform;
  TrustletProfiler profiler;
  profiler.ConfigureFromReport(*platform.mpu(), sys->report);
  platform.AddEventSink(&profiler);
  const uint64_t cycles_before = platform.cpu().cycles();
  const uint64_t sleep_before = platform.cpu().stats().sleep_cycles;

  // Cycle-bound slices out of phase with the 2-tick schedule: some end while
  // T0 sleeps, and the cycles slept up to the cut must already be in the
  // profile.
  int cut_mid_sleep = 0;
  for (int i = 0; i < 40; ++i) {
    platform.RunUntilCycle(platform.cpu().cycles() + 613);
    uint32_t word = 0;
    ASSERT_TRUE(platform.bus().HostReadWord(platform.cpu().ip(), &word));
    if (word == Encode(Instruction{Opcode::kWfi})) {
      ++cut_mid_sleep;
    }
    ASSERT_EQ(profiler.total_cycles(), platform.cpu().cycles() - cycles_before);
  }
  platform.RemoveEventSink(&profiler);
  EXPECT_GT(cut_mid_sleep, 0);
  ASSERT_FALSE(platform.cpu().halted());

  const LaneProfile& t0 = profiler.lane(1);
  const LaneProfile& t1 = profiler.lane(2);
  ASSERT_EQ(t0.code_base, 0x11000u);
  ASSERT_EQ(t1.code_base, 0x13000u);
  EXPECT_EQ(t0.sleep_cycles,
            platform.cpu().stats().sleep_cycles - sleep_before);
  EXPECT_GT(t0.sleep_cycles, t0.cycles / 2);  // T0 mostly sleeps.
  EXPECT_EQ(t1.sleep_cycles, 0u);
  EXPECT_GT(t1.instructions, t0.instructions);
  // Sleeping replaced yielding: T0 is displaced only by ticks.
  EXPECT_EQ(t0.exceptions, 0u);
  EXPECT_GT(t0.interrupts, 0u);
  uint64_t lane_cycle_sum = 0;
  for (int i = 0; i < profiler.num_lanes(); ++i) {
    lane_cycle_sum += profiler.lane(i).cycles;
  }
  EXPECT_EQ(lane_cycle_sum, platform.cpu().cycles() - cycles_before);
  EXPECT_NE(profiler.ToString().find("sleep-cyc"), std::string::npos);
}

TEST(ProfilerTest, ClearKeepsLaneConfiguration) {
  TrustletProfiler profiler;
  profiler.AddLane("x", 0x1000, 0x2000);
  InsnEvent insn;
  insn.cycle = 10;
  insn.ip = 0x1000;
  insn.cost = 2;
  profiler.OnInstruction(insn);
  EXPECT_EQ(profiler.lane(1).instructions, 1u);
  profiler.Clear();
  EXPECT_EQ(profiler.num_lanes(), 2);
  EXPECT_EQ(profiler.lane(1).instructions, 0u);
  EXPECT_EQ(profiler.lane(1).name, "x");
}

// ---------------------------------------------------------------------------
// Chrome trace exporter.

// Deterministic smoke scenario: guest code arms the timer, spins; the ISR
// (in its own lane) prints one byte and halts. Exercises execution spans,
// the IRQ raise→recognition arrow, the dispatch flow, instants, and halt.
void RunChromeSmokeScenario(ChromeTraceWriter* writer) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Result<AsmOutput> out = Assemble(R"(
start:
    li  r1, 0xF0002000
    movi r2, 40
    stw r2, [r1 + 4]
    la  r2, isr
    stw r2, [r1 + 12]
    movi r2, 7
    stw r2, [r1 + 0]
    li  sp, 0x3c000
    sti
idle:
    jmp idle
.org 0x30100
isr:
    li  r9, 0xF0003000
    movi r5, '!'
    stw r5, [r9]
    halt
)",
                                   0x30000);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  platform.cpu().Reset(0x30000);

  writer->AddLane("guest", 0x30000, 0x30100);
  writer->AddLane("isr", 0x30100, 0x30200);
  platform.AddEventSink(writer);
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  ASSERT_EQ(platform.uart().output(), "!");
  platform.RemoveEventSink(writer);
  writer->Finish();
}

TEST(ChromeTraceTest, SmokeScenarioMatchesGoldenFile) {
  ChromeTraceWriter writer;
  RunChromeSmokeScenario(&writer);
  const std::string json = writer.Json();

  // Structural checks first: a valid Chrome trace document with the
  // expected record kinds.
  std::string error;
  EXPECT_TRUE(JsonParses(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exec\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"entry:irq\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // Flow start.
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // Flow finish.
  EXPECT_NE(json.find("\"name\":\"uart:!\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"halt\""), std::string::npos);
  EXPECT_NE(json.find("\"guest\""), std::string::npos);
  EXPECT_NE(json.find("\"isr\""), std::string::npos);
  EXPECT_EQ(writer.dropped(), 0u);

  const std::string golden_path =
      std::string(TRUSTLITE_TEST_SRCDIR) + "/golden/chrome_trace_smoke.json";
  if (std::getenv("TRUSTLITE_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(golden_path, std::ios::binary);
    ASSERT_TRUE(regen.good());
    regen << json;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (rerun with TRUSTLITE_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  // The simulator is deterministic, the serializer uses a fixed field
  // order: the export is byte-stable.
  EXPECT_EQ(json, golden.str());
}

TEST(ChromeTraceTest, PreemptiveSystemTraceIsValidJson) {
  auto sys = BuildPreemptiveSystem(/*timer_period=*/500);
  ASSERT_NE(sys, nullptr);
  ChromeTraceWriter writer;
  writer.ConfigureFromReport(*sys->platform.mpu(), sys->report);
  sys->platform.AddEventSink(&writer);
  sys->platform.Run(20000);
  sys->platform.RemoveEventSink(&writer);
  const std::string json = writer.Json();
  std::string error;
  EXPECT_TRUE(JsonParses(json, &error)) << error;
  EXPECT_GT(writer.event_count(), 100u);
  EXPECT_EQ(writer.dropped(), 0u);
  // Lane metadata for all four lanes made it into the trace.
  EXPECT_NE(json.find("\"os\""), std::string::npos);
  EXPECT_NE(json.find("\"trustlet-"), std::string::npos);
  EXPECT_NE(json.find("\"untrusted\""), std::string::npos);
}

TEST(ChromeTraceTest, EventCapCountsDropsAndStaysValid) {
  auto sys = BuildPreemptiveSystem(/*timer_period=*/500);
  ASSERT_NE(sys, nullptr);
  ChromeTraceWriter writer(/*max_events=*/16);
  writer.ConfigureFromReport(*sys->platform.mpu(), sys->report);
  sys->platform.AddEventSink(&writer);
  sys->platform.Run(20000);
  sys->platform.RemoveEventSink(&writer);
  EXPECT_GT(writer.dropped(), 0u);
  EXPECT_LE(writer.event_count(), 16u);
  const std::string json = writer.Json();
  std::string error;
  EXPECT_TRUE(JsonParses(json, &error)) << error;
  EXPECT_NE(json.find("\"dropped\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reset semantics (satellite audit): host telemetry is cumulative across
// HardReset, architectural per-run state is not.

TEST(ResetSemanticsTest, HardResetClearsEntryLatchKeepsTelemetry) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  LoadAt(platform, R"(
    li  r9, 0xF0000000
    la  r2, swi_handler
    stw r2, [r9 + 32]
    li  sp, 0x3c000
    swi 0
    halt
swi_handler:
    addi sp, sp, 4
    iret
)",
         0x30000);
  platform.cpu().Reset(0x30000);

  TrustletProfiler profiler;
  ExecutionTracer tracer;
  platform.AddEventSink(&profiler);
  tracer.Run(&platform, 1000);
  ASSERT_TRUE(platform.cpu().halted());

  // The SWI entry latched its cost (regular engine + secure detect).
  const uint32_t latched = platform.cpu().last_exception_entry_cycles();
  ASSERT_GT(latched, 0u);
  EXPECT_EQ(tracer.counts().exceptions, 1u);

  const uint64_t insns_before = platform.cpu().stats().instructions;
  const uint64_t cycles_before = platform.cpu().cycles();
  ASSERT_GT(insns_before, 0u);

  platform.HardReset();

  // Architectural per-run state is cleared — a fault-injection campaign
  // reading the latch after reset must not see the previous run's entry
  // cost (regression: the latch used to survive Reset).
  EXPECT_EQ(platform.cpu().last_exception_entry_cycles(), 0u);
  EXPECT_FALSE(platform.cpu().halted());

  // Host-side telemetry is cumulative across HardReset (documented
  // semantics: cpu.h / platform.h).
  EXPECT_EQ(platform.cpu().stats().instructions, insns_before);
  EXPECT_EQ(platform.cpu().cycles(), cycles_before);
  EXPECT_EQ(tracer.counts().exceptions, 1u);

  // Attached sinks observed the reset epoch boundary.
  EXPECT_EQ(profiler.resets(), 1u);
  platform.RemoveEventSink(&profiler);
}

TEST(ResetSemanticsTest, TracerClearZeroesCountsAndRing) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  LoadAt(platform, R"(
    movi r1, 1
    halt
)",
         0x30000);
  platform.cpu().Reset(0x30000);
  ExecutionTracer tracer(/*capacity=*/8, /*record_instructions=*/true);
  tracer.Run(&platform, 100);
  ASSERT_GT(tracer.counts().instructions, 0u);
  ASSERT_FALSE(tracer.events().empty());
  tracer.Clear();
  EXPECT_EQ(tracer.counts().instructions, 0u);
  EXPECT_EQ(tracer.counts().uart_bytes, 0u);
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace trustlite
