// Copyright 2026 The TrustLite Reproduction Authors.
//
// Invalidation tests for the superinstruction fusion layer (DESIGN.md §15)
// and the data-access windows that ride on the same generation counters.
// Fusion only engages inside Cpu::Run's fast run loop, so the tests drive
// the guest through Platform::Run — Step() only where it shares the code
// cache with a run — and first prove fusion actually fired
// (fusion_groups > 0) before asserting that stale fused state did not leak
// into guest-visible behavior.

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/loader/system_image.h"
#include "src/mem/layout.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

// Assembles `source`, installs it at 0x30000 and resets to `start`.
void Install(Platform& platform, const std::string& source) {
  Result<AsmOutput> out = Assemble(source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  const std::vector<uint8_t> image = out->Flatten(&base);
  ASSERT_TRUE(platform.bus().HostWriteBytes(base, image));
  platform.cpu().Reset(out->symbols.at("start"));
}

// Programs EA-MPU region `index` / rule `index` through the MMIO banks.
void SetMpuRegion(Platform& platform, int index, uint32_t base, uint32_t end,
                  uint32_t attr) {
  const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                       static_cast<uint32_t>(index) * kMpuRegionStride;
  ASSERT_TRUE(platform.bus().HostWriteWord(reg + 0, base));
  ASSERT_TRUE(platform.bus().HostWriteWord(reg + 4, end));
  ASSERT_TRUE(platform.bus().HostWriteWord(reg + 8, attr));
}

void SetMpuRule(Platform& platform, int index, uint32_t subject,
                uint32_t object, bool r, bool w, bool x) {
  ASSERT_TRUE(platform.bus().HostWriteWord(
      kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4,
      EncodeMpuRule(subject, object, r, w, x)));
}

void EnableMpu(Platform& platform) {
  ASSERT_TRUE(platform.bus().HostWriteWord(kMpuMmioBase + kMpuRegCtrl,
                                           kMpuCtrlEnable));
}

// Restarts the installed guest at `start` with r6 = `passes` (the loop
// bound of the guests below) and runs it to HALT. Cpu::Reset keeps the
// code cache and the data windows, so a second call runs warm.
void RunPasses(Platform& platform, uint32_t start, uint32_t passes) {
  platform.cpu().Reset(start);
  platform.cpu().set_reg(6, passes);
  platform.Run(1'000'000);
  ASSERT_TRUE(platform.cpu().halted());
  ASSERT_FALSE(platform.cpu().trap().valid) << platform.cpu().trap().reason;
}

// ---------------------------------------------------------------------------
// Baseline: a hot straight-line loop fuses and retires groups.

TEST(FusionTest, HotLoopFusesAndRetiresGroups) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 64
loop:
    addi r3, r3, 2
    addi r3, r3, 3
    addi r3, r3, 5
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 64u * 10u);
  EXPECT_EQ(platform.cpu().reg(5), 64u);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.fusion_groups, 0u);
  // Every dispatched group retires at least two constituents.
  EXPECT_GE(stats.fusion_retired, 2 * stats.fusion_groups);
  EXPECT_GT(stats.fusion_builds, 0u);
}

// ---------------------------------------------------------------------------
// Self-modifying code across a fused pair: a guest store patches the second
// constituent of a fused group. The always-compare rule on tail words must
// drop the group and re-execute the patched instruction — a fusion cache
// that trusted its cached decode would keep adding 1 instead of 100.

TEST(FusionTest, SelfModifyingStoreAcrossFusedPairIsRefetched) {
  Instruction patched;
  patched.opcode = Opcode::kAddi;
  patched.rd = 3;
  patched.rs1 = 3;
  patched.imm = 100;
  // Phase 0 runs the loop four times so the group headed at `head` — whose
  // second constituent is `target` — is built and goes hot. The patch then
  // lands from *outside* the loop and phase 1 re-enters: the warmed entry
  // is now stale and must be dropped by the tail-word re-compare.
  char source[768];
  std::snprintf(source, sizeof(source), R"(
.org 0x30000
start:
    la  r1, target
    li  r2, 0x%x
    movi r3, 0
    movi r5, 0
    li  r6, 4
    movi r7, 0
    movi r8, 1
again:
head:
    addi r3, r3, 1
target:
    addi r3, r3, 1
    addi r5, r5, 1
    bne r5, r6, again
    beq r7, r8, finish
    movi r7, 1
    stw r2, [r1]
    movi r5, 0
    jmp again
finish:
    halt
)",
                Encode(patched));

  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, source);
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.fusion_groups, 0u);
  // The stale warmed group was dropped, not replayed.
  EXPECT_GT(stats.fusion_invalidations, 0u);
  // Phase 0: four passes of (+1 +1). Phase 1: four passes of (+1 +100).
  EXPECT_EQ(platform.cpu().reg(3), 8u + 4u * 101u);
  EXPECT_EQ(platform.cpu().reg(5), 4u);
}

// ---------------------------------------------------------------------------
// Reset with a fusion cache warmed mid-quad: run an endless fusable loop
// until the instruction budget expires somewhere inside a fused group, then
// Reset and re-run. The surviving (by design) fusion entries must
// revalidate rather than replay, so the second run is bit-identical to the
// first from the architectural side.

TEST(FusionTest, ResetMidFusedQuadReplaysDeterministically) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  const std::string source = R"(
.org 0x30000
start:
    movi r3, 0
loop:
    addi r3, r3, 1
    addi r3, r3, 1
    addi r3, r3, 1
    addi r3, r3, 1
    movi r9, 7
    jmp loop
)";
  Install(platform, source);
  // 42 is not a multiple of the 6-instruction loop body, so the budget
  // expires inside the straight-line quad once groups have gone hot.
  platform.Run(42);
  ASSERT_FALSE(platform.cpu().halted());
  const uint32_t r3_first = platform.cpu().reg(3);
  const uint64_t groups_first = platform.cpu().stats().fusion_groups;
  EXPECT_GT(groups_first, 0u);

  Install(platform, source);  // Same image + Reset(start).
  platform.Run(42);
  ASSERT_FALSE(platform.cpu().halted());
  // Registers were cleared by Reset and the replay is deterministic.
  EXPECT_EQ(platform.cpu().reg(3), r3_first);
  EXPECT_EQ(platform.cpu().reg(9), 7u);
  // The warmed cache kept fusing after the reset (entries revalidated, not
  // discarded wholesale).
  EXPECT_GT(platform.cpu().stats().fusion_groups, groups_first);
}

// ---------------------------------------------------------------------------
// Host program reload: overwrite a previously fused loop with a different
// program at the same addresses (what loaders and the snapshot restore path
// do), Reset, re-run. Tail words are re-compared through the host backing
// on every dispatch, so the stale group must not replay even though the
// reload may never have bumped the bus memory generation.

TEST(FusionTest, HostReloadAfterResetRefetchesFusedTails) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 8
loop:
    addi r3, r3, 1
    addi r3, r3, 1
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(1000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 16u);
  EXPECT_GT(platform.cpu().stats().fusion_groups, 0u);

  // Same layout, different immediates in the fused pair.
  Install(platform, R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 8
loop:
    addi r3, r3, 10
    addi r3, r3, 20
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)");
  platform.Run(1000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 8u * 30u);
}

// ---------------------------------------------------------------------------
// Config switch: with fusion disabled the counters stay at zero and the
// architectural result is unchanged — fusion is pure memoization.

TEST(FusionTest, DisabledFusionIsPureMemoization) {
  const std::string source = R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li  r6, 32
loop:
    addi r3, r3, 3
    addi r3, r3, 4
    addi r5, r5, 1
    bne r5, r6, loop
    halt
)";
  uint32_t r3[2];
  uint64_t cycles[2];
  for (int pass = 0; pass < 2; ++pass) {
    PlatformConfig config;
    config.with_mpu = false;
    config.fusion = (pass == 0);
    Platform platform(config);
    Install(platform, source);
    platform.Run(10000);
    ASSERT_TRUE(platform.cpu().halted());
    r3[pass] = platform.cpu().reg(3);
    cycles[pass] = platform.cpu().cycles();
    if (pass == 0) {
      EXPECT_GT(platform.cpu().stats().fusion_groups, 0u);
    } else {
      EXPECT_EQ(platform.cpu().stats().fusion_groups, 0u);
      EXPECT_EQ(platform.cpu().stats().fusion_builds, 0u);
      EXPECT_EQ(platform.cpu().stats().fusion_retired, 0u);
    }
  }
  EXPECT_EQ(r3[0], r3[1]);
  EXPECT_EQ(cycles[0], cycles[1]);
}

// ---------------------------------------------------------------------------
// Data-access windows: a hot load/store loop over RAM must hit the windows,
// and the counters must stay guest-invisible (result unchanged vs a
// fusion/window-free run is covered by the differential corpus; here we
// pin the counters themselves so --stats reporting can trust them).

TEST(FusionTest, DataWindowCountersAccumulate) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Install(platform, R"(
.org 0x30000
start:
    la  r1, buf
    movi r5, 0
    li  r6, 50
loop:
    ldw r4, [r1]
    addi r4, r4, 1
    stw r4, [r1]
    addi r5, r5, 1
    bne r5, r6, loop
    halt
buf:
    .word 0
)");
  platform.Run(10000);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(4), 50u);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_GT(stats.data_window_hits, 0u);
  EXPECT_GT(stats.data_window_misses, 0u);  // At least the first touch.
  // And the platform-level snapshot carries the same counters.
  const FastPathStats fp = platform.fast_path_stats();
  EXPECT_EQ(fp.data_window_hits, stats.data_window_hits);
  EXPECT_EQ(fp.data_window_misses, stats.data_window_misses);
}

// ---------------------------------------------------------------------------
// Code-cache conflict cliff: trustlet code regions start on 4 KiB
// boundaries, and a set index that drops the page number maps the entry
// code of every region onto the same decode and fusion sets. Blocks placed
// exactly 4 KiB apart, plus one on a 64 KiB boundary, jump round a ring;
// once a warm-up has run the ring, further passes must hit every time.

TEST(FusionTest, PageAlignedBlocksDoNotEvictEachOther) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  std::string source = R"(
.org 0x30000
start:
    movi r5, 0
ring:
    addi r3, r3, 1
    addi r3, r3, 2
    addi r3, r3, 3
    jmp  block_31
back:
    addi r5, r5, 1
    bne  r5, r6, ring
    halt
)";
  const char* const kBlocks[][2] = {{"0x31000", "block_31"},
                                    {"0x32000", "block_32"},
                                    {"0x33000", "block_33"},
                                    {"0x40000", "block_40"}};
  for (int i = 0; i < 4; ++i) {
    source += std::string(".org ") + kBlocks[i][0] + "\n" + kBlocks[i][1] +
              ":\n    addi r4, r4, 1\n    addi r4, r4, 2\n"
              "    addi r4, r4, 3\n    jmp  " +
              (i < 3 ? kBlocks[i + 1][1] : "back") + "\n";
  }
  Install(platform, source);
  const uint32_t start = 0x30000;
  // Two passes reach every group head once (the second enters at `ring`).
  RunPasses(platform, start, 2);
  const CpuStats warm = platform.cpu().stats();
  EXPECT_GT(warm.fusion_groups, 0u);

  RunPasses(platform, start, 32);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_EQ(platform.cpu().reg(5), 32u);
  EXPECT_GT(stats.fusion_groups, warm.fusion_groups);
  EXPECT_EQ(stats.decode_misses, warm.decode_misses);
  EXPECT_EQ(stats.fusion_builds, warm.fusion_builds);
}

// ---------------------------------------------------------------------------
// One code cache for Step() and Run(): a fused group's head is the decode
// Step() reads too. A host store rewrites the head of a hot group between a
// Run() and the Step()s after it. The stepped head must execute the new
// word (a decode miss, which drops the group), and the next Run(), entering
// at the head, must build the group once over that decode and then reuse
// it. Registers, IP and cycles track a fast_path=false platform driven the
// same way throughout.

TEST(FusionTest, StepAndRunShareOneCodeCache) {
  const std::string source = R"(
.org 0x30000
start:
    movi r3, 0
    movi r5, 0
    li   r6, 100000
loop:
    addi r3, r3, 1
    addi r5, r5, 1
    addi r7, r7, 2
    bne  r5, r6, loop
    halt
)";
  Result<AsmOutput> out = Assemble(source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const uint32_t head = out->symbols.at("loop");
  PlatformConfig config;
  config.with_mpu = false;
  Platform fast(config);
  config.fast_path = false;
  Platform ref(config);
  Install(fast, source);
  Install(ref, source);
  const auto expect_same_state = [&] {
    for (int i = 0; i < kNumRegisters; ++i) {
      EXPECT_EQ(fast.cpu().reg(i), ref.cpu().reg(i)) << "r" << i;
    }
    EXPECT_EQ(fast.cpu().ip(), ref.cpu().ip());
    EXPECT_EQ(fast.cpu().cycles(), ref.cpu().cycles());
  };

  for (int32_t round = 1; round <= 3; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    // Budgets of 37, 74 and 111 instructions end inside the group at
    // different constituents.
    fast.Run(37 * static_cast<uint64_t>(round));
    ref.Run(37 * static_cast<uint64_t>(round));
    EXPECT_GT(fast.cpu().stats().fusion_groups, 0u);
    expect_same_state();

    Instruction patched;
    patched.opcode = Opcode::kAddi;
    patched.rd = 3;
    patched.rs1 = 3;
    patched.imm = 100 * round;
    ASSERT_TRUE(fast.bus().HostWriteWord(head, Encode(patched)));
    ASSERT_TRUE(ref.bus().HostWriteWord(head, Encode(patched)));
    const auto step_to_head = [&] {
      while (fast.cpu().ip() != head) {
        fast.cpu().Step();
        ref.cpu().Step();
      }
    };
    step_to_head();
    const CpuStats before_step = fast.cpu().stats();
    const uint32_t r3 = fast.cpu().reg(3);
    fast.cpu().Step();
    ref.cpu().Step();
    EXPECT_EQ(fast.cpu().reg(3), r3 + 100u * static_cast<uint32_t>(round));
    EXPECT_EQ(fast.cpu().stats().decode_misses, before_step.decode_misses + 1);
    step_to_head();
    expect_same_state();

    // 50 passes of the 4-instruction body, one group each.
    const CpuStats before_run = fast.cpu().stats();
    fast.Run(200);
    ref.Run(200);
    const CpuStats& after_run = fast.cpu().stats();
    EXPECT_EQ(after_run.fusion_builds, before_run.fusion_builds + 1);
    EXPECT_EQ(after_run.fusion_groups, before_run.fusion_groups + 50);
    EXPECT_EQ(fast.cpu().ip(), head);
    expect_same_state();
  }
}

// ---------------------------------------------------------------------------
// Data-window set. A trustlet resuming through continue() reads its own
// code (the Trustlet Table slot address), its Trustlet Table row and its
// stack: three disjoint windows, interleaved here with UART status polls
// that can never be windowed. After warm-up every RAM load must hit; the
// only misses left are the polls.

TEST(FusionTest, WindowSetHoldsContinueWorkingSetAcrossUartPolls) {
  Platform platform{PlatformConfig{}};
  SetMpuRegion(platform, 0, 0x11000, 0x11100, kMpuAttrEnable | kMpuAttrCode);
  SetMpuRegion(platform, 1, 0x12000, 0x12100, kMpuAttrEnable);  // Stack.
  SetMpuRegion(platform, 2, 0x15000, 0x15100, kMpuAttrEnable);  // TT row.
  SetMpuRule(platform, 0, 0, 0, true, false, true);
  SetMpuRule(platform, 1, 0, 1, true, true, false);
  SetMpuRule(platform, 2, 0, 2, true, false, false);
  EnableMpu(platform);
  Install(platform, R"(
.org 0x11000
start:
    la   r10, tt_slot_addr
    li   r11, 0x15000
    li   sp, 0x120BC
    li   r12, 0xF0003000
    movi r5, 0
loop:
    ldw  r1, [r10]
    ldw  r4, [r12 + 4]
    ldw  r2, [r11]
    ldw  r4, [r12 + 4]
    ldw  r3, [sp + 60]
    ldw  r4, [r12 + 4]
    addi r5, r5, 1
    bne  r5, r6, loop
    halt
tt_slot_addr:
    .word 0x15000
)");
  const uint32_t start = 0x11000;
  RunPasses(platform, start, 1);
  const CpuStats warm = platform.cpu().stats();

  constexpr uint32_t kPasses = 16;
  RunPasses(platform, start, kPasses);
  const CpuStats& stats = platform.cpu().stats();
  EXPECT_EQ(platform.cpu().reg(1), 0x15000u);
  EXPECT_EQ(stats.data_window_hits - warm.data_window_hits, 3 * kPasses);
  EXPECT_EQ(stats.data_window_misses - warm.data_window_misses,
            3 * kPasses);  // The UART polls.
}

// ---------------------------------------------------------------------------
// The busy path (DESIGN.md §15, "Polling at deadlines").

// BM_PreemptiveSystem's image: nanOS preempting two busy trustlets on a
// 500-cycle tick, with IF set in every trustlet instruction. The run loop
// polls its IRQ sources when the horizon expires and after the ISR's MMIO
// accesses, a few times per interrupt; the Step() reference polls at every
// IF-set instruction. Both take every interrupt at the same cycle.
TEST(FusionTest, BusyLoopPollsIrqOncePerDeadline) {
  SystemImage image;
  for (int i = 0; i < 2; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = 0x11000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_addr = 0x12000 + static_cast<uint32_t>(i) * 0x2000;
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = "tl_main:\nloop:\n    addi r1, r1, 1\n    jmp loop\n";
    Result<TrustletMeta> trustlet = BuildTrustlet(spec);
    ASSERT_TRUE(trustlet.ok()) << trustlet.status().ToString();
    image.Add(std::move(*trustlet));
  }
  NanosConfig os_config;
  os_config.timer_period = 500;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok()) << os.status().ToString();
  image.Add(std::move(*os));

  PlatformConfig reference_config;
  reference_config.fast_path = false;
  Platform fast;
  Platform reference(reference_config);
  for (Platform* p : {&fast, &reference}) {
    ASSERT_TRUE(p->InstallImage(image).ok());
    ASSERT_TRUE(p->BootAndLaunch().ok());
    p->Run(200'000);
  }
  const CpuStats& stats = fast.cpu().stats();
  const CpuStats& ref = reference.cpu().stats();
  EXPECT_GT(stats.fusion_retired, 100'000u);
  ASSERT_GT(stats.interrupts, 100u);
  EXPECT_LE(stats.irq_polls, 4 * stats.interrupts + 64);
  EXPECT_GT(ref.irq_polls, 100'000u);
  EXPECT_EQ(stats.instructions, ref.instructions);
  EXPECT_EQ(stats.interrupts, ref.interrupts);
  EXPECT_EQ(fast.cpu().cycles(), reference.cpu().cycles());
  EXPECT_EQ(fast.cpu().ip(), reference.cpu().ip());
}

// The fast loop's host counters, pinned as exact values. `tlsim --stats` and
// the fleet benchmark's cpu.fused_frac and cpu.decode_miss_ratio read them,
// yet the differential harness compares only architectural state and the
// benchmark's determinism check only compares runs of one build. The guest is
// the compute fleet's: nanOS preempting two trustlets that run the
// ldw/add/mul/stw/addi/stw/jmp body over their EA-MPU data regions with IF
// set, on a tick whose deadlines land inside fused groups. Registers, IP,
// cycles and data bytes track a fast_path=false platform throughout.
TEST(FusionTest, DispatchCountersArePinned) {
  constexpr uint32_t kCode[2] = {0x11000, 0x13000};
  constexpr uint32_t kData[2] = {0x12000, 0x14000};
  SystemImage image;
  for (int i = 0; i < 2; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = kCode[i];
    spec.data_addr = kData[i];
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = std::string("tl_main:\n    li   r4, TL_DATA\n    li   r5, ") +
                (i == 0 ? "0x9e3779b1" : "0x7f4a7c15") +
                "\n    movi r1, 0\nloop:\n"
                "    ldw  r2, [r4 + 4]\n    add  r2, r2, r5\n"
                "    mul  r3, r2, r1\n    stw  r3, [r4 + 4]\n"
                "    addi r1, r1, 1\n    stw  r1, [r4]\n    jmp  loop\n";
    Result<TrustletMeta> trustlet = BuildTrustlet(spec);
    ASSERT_TRUE(trustlet.ok()) << trustlet.status().ToString();
    image.Add(std::move(*trustlet));
  }
  NanosConfig os_config;
  os_config.timer_period = 517;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok()) << os.status().ToString();
  image.Add(std::move(*os));

  PlatformConfig reference_config;
  reference_config.fast_path = false;
  Platform fast;
  Platform reference(reference_config);
  for (Platform* p : {&fast, &reference}) {
    ASSERT_TRUE(p->InstallImage(image).ok());
    ASSERT_TRUE(p->BootAndLaunch().ok());
  }
  const auto expect_same_state = [&] {
    for (int i = 0; i < kNumRegisters; ++i) {
      EXPECT_EQ(fast.cpu().reg(i), reference.cpu().reg(i)) << "r" << i;
    }
    EXPECT_EQ(fast.cpu().ip(), reference.cpu().ip());
    EXPECT_EQ(fast.cpu().cycles(), reference.cpu().cycles());
    for (const uint32_t data : kData) {
      std::vector<uint8_t> got;
      std::vector<uint8_t> want;
      ASSERT_TRUE(fast.bus().HostReadBytes(data, 0x400, &got));
      ASSERT_TRUE(reference.bus().HostReadBytes(data, 0x400, &want));
      EXPECT_EQ(got, want) << std::hex << data;
    }
  };
  struct Counters {
    uint64_t instructions, decode_hits, decode_misses, fusion_groups,
        fusion_retired, fusion_builds, fusion_invalidations, irq_polls,
        data_window_hits, data_window_misses;
  };
  const auto expect_counters = [&](const CpuStats& before,
                                   const Counters& want) {
    const CpuStats& s = fast.cpu().stats();
    EXPECT_EQ(s.instructions - before.instructions, want.instructions);
    EXPECT_EQ(s.decode_hits - before.decode_hits, want.decode_hits);
    EXPECT_EQ(s.decode_misses - before.decode_misses, want.decode_misses);
    EXPECT_EQ(s.fusion_groups - before.fusion_groups, want.fusion_groups);
    EXPECT_EQ(s.fusion_retired - before.fusion_retired, want.fusion_retired);
    EXPECT_EQ(s.fusion_builds - before.fusion_builds, want.fusion_builds);
    EXPECT_EQ(s.fusion_invalidations - before.fusion_invalidations,
              want.fusion_invalidations);
    EXPECT_EQ(s.irq_polls - before.irq_polls, want.irq_polls);
    EXPECT_EQ(s.data_window_hits - before.data_window_hits,
              want.data_window_hits);
    EXPECT_EQ(s.data_window_misses - before.data_window_misses,
              want.data_window_misses);
  };

  // Cycle windows of 97 cycles: the targets fall inside groups.
  const CpuStats booted = fast.cpu().stats();
  for (int k = 0; k < 1500; ++k) {
    const uint64_t target = fast.cpu().cycles() + 97;
    fast.RunUntilCycle(target);
    reference.RunUntilCycle(target);
  }
  expect_same_state();
  expect_counters(booted, {78'753, 78'695, 58, 22'501, 77'551, 58, 1, 1'948,
                           34'468, 19});

  // An instruction budget that ends inside a group.
  const CpuStats windowed = fast.cpu().stats();
  fast.Run(100'003);
  reference.Run(100'003);
  expect_same_state();
  expect_counters(windowed, {100'003, 100'003, 0, 28'191, 98'669, 0, 0, 953,
                             43'810, 0});
  EXPECT_FALSE(fast.cpu().halted());
  EXPECT_EQ(fast.cpu().ip(), kCode[0] + 0x90);  // The stw of ldw/add/mul/stw.
}

// A constituent that halts or faults ends its group with an event, and is
// not counted as retired inside the group. A [movi addi halt] group retires
// three instructions, two of them inside the group (the halt retires, but
// ends the group). A [lui ori movi stw] group whose misaligned store faults,
// with no handler, so the core halts, retires three, all inside the group.
TEST(FusionTest, GroupEndedByAnEventCountsOnlyItsRetiredPrefix) {
  struct Case {
    const char* body;
    uint64_t instructions;
    uint64_t fusion_retired;
    uint64_t decode_hits;  // The tail constituents dispatched.
  };
  for (const Case& c :
       {Case{"    movi r1, 1\n    addi r1, r1, 2\n    halt\n", 3, 2, 2},
        Case{"    li   r1, 0x31000\n    movi r2, 7\n"
             "    stw  r2, [r1 + 2]\n    halt\n",
             3, 3, 3}}) {
    SCOPED_TRACE(c.body);
    PlatformConfig config;
    config.with_mpu = false;
    Platform platform(config);
    Install(platform, std::string(".org 0x30000\nstart:\n") + c.body);
    platform.Run(100);
    ASSERT_TRUE(platform.cpu().halted());
    const CpuStats& stats = platform.cpu().stats();
    EXPECT_EQ(stats.instructions, c.instructions);
    EXPECT_EQ(stats.fusion_groups, 1u);
    EXPECT_EQ(stats.fusion_retired, c.fusion_retired);
    EXPECT_EQ(stats.decode_misses, 1u);
    EXPECT_EQ(stats.decode_hits, c.decode_hits);
  }
}

// A hot fused loop under the EA-MPU, shaped like the compute fleet's: two
// groups per iteration, one entered by the back edge, one by fall-through.
// Each group head pays a full fetch Check once per predecessor; re-entries
// read it through the host backing, so the checks of a warm run do not
// grow with its iterations.
TEST(FusionTest, PinnedHeadsSkipFetchChecksInHotLoops) {
  constexpr uint32_t kStart = 0x11000;
  Platform platform;
  SetMpuRegion(platform, 0, 0x11000, 0x11100, kMpuAttrEnable | kMpuAttrCode);
  SetMpuRegion(platform, 1, 0x12000, 0x12100, kMpuAttrEnable);
  SetMpuRule(platform, 0, 0, 0, true, false, true);
  SetMpuRule(platform, 1, 0, 1, true, true, false);
  EnableMpu(platform);
  Install(platform, R"(
.org 0x11000
start:
    li   r1, 0x12000
    movi r5, 0
loop:
    ldw  r2, [r1 + 4]
    add  r2, r2, r5
    mul  r3, r2, r5
    stw  r3, [r1 + 4]
    addi r5, r5, 1
    stw  r5, [r1]
    bne  r5, r6, loop
    halt
)");
  RunPasses(platform, kStart, 8);  // Builds the groups and data windows.
  struct Delta {
    uint64_t checks = 0;
    uint64_t builds = 0;
    uint64_t fused = 0;
  };
  auto warm_run = [&](uint32_t passes) {
    const uint64_t checks = platform.mpu()->stats().checks;
    const CpuStats before = platform.cpu().stats();
    RunPasses(platform, kStart, passes);
    const CpuStats& after = platform.cpu().stats();
    uint32_t counter = 0;
    EXPECT_TRUE(platform.bus().HostReadWord(0x12000, &counter));
    EXPECT_EQ(counter, passes);
    return Delta{platform.mpu()->stats().checks - checks,
                 after.fusion_builds - before.fusion_builds,
                 after.fusion_retired - before.fusion_retired};
  };
  const Delta short_run = warm_run(8);
  const Delta long_run = warm_run(4096);
  EXPECT_GT(long_run.fused, 6u * 4000u);
  EXPECT_EQ(short_run.builds, 0u);
  EXPECT_EQ(long_run.builds, 0u);
  EXPECT_EQ(long_run.checks, short_run.checks);
  EXPECT_LE(long_run.checks, 4u);
}

// ---------------------------------------------------------------------------
// The code cache's pool (DESIGN.md §10): an entry per set looked up, never
// more than the 512 sets. Fusion is off below, so every retired instruction
// looks up its own set.

// `far` is 512 words past `loop` in the same page, so the two share a set:
// they alternate through one entry and each misses on every pass, as in any
// direct-mapped cache. Anywhere else every instruction misses once.
TEST(CodePoolTest, SetSharersAlternateThroughOneEntry) {
  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "far shares loop's set" : "far has its own set");
    PlatformConfig config;
    config.with_mpu = false;
    config.fusion = false;
    Platform platform(config);
    EXPECT_EQ(platform.cpu().code_entries(), 0u);
    Install(platform, std::string(R"(
.org 0x30000
start:
    movi r5, 0
loop:
    addi r5, r5, 1
    jmp  far
.org )") + (shared ? "0x30804" : "0x30104") + R"(
far:
    bne  r5, r6, loop
    halt
)");
    constexpr uint64_t kPasses = 50;
    RunPasses(platform, 0x30000, kPasses);
    const CpuStats& stats = platform.cpu().stats();
    EXPECT_EQ(platform.cpu().reg(5), kPasses);
    EXPECT_EQ(stats.instructions, 3 * kPasses + 2);
    if (shared) {
      // movi, jmp and halt once (halt shares jmp's set), addi and bne on
      // every pass.
      EXPECT_EQ(stats.decode_misses, 2 * kPasses + 3);
      EXPECT_EQ(platform.cpu().code_entries(), 3u);
    } else {
      EXPECT_EQ(stats.decode_misses, 5u);
      EXPECT_EQ(platform.cpu().code_entries(), 5u);
    }
  }
}

// 2,048 straight-line instructions over two pages look up every set twice.
// The pool holds one entry per set reached so far and stops at 512; a
// restore empties it.
TEST(CodePoolTest, SweepOfEverySetHoldsAtMostOneEntryPerSet) {
  constexpr uint32_t kSets = 512;
  constexpr uint64_t kLength = 4 * kSets;
  PlatformConfig config;
  config.with_mpu = false;
  config.fusion = false;
  Platform platform(config);
  std::string source = ".org 0x30000\nstart:\n";
  for (uint64_t i = 0; i < kLength; ++i) {
    source += "    addi r3, r3, 1\n";
  }
  source += "    halt\n";
  Install(platform, source);
  for (uint64_t done = 0; done < kLength; done += 128) {
    platform.Run(128);
    ASSERT_EQ(platform.cpu().stats().instructions, done + 128);
    EXPECT_EQ(platform.cpu().code_entries(),
              std::min<uint64_t>(done + 128, kSets));
  }
  platform.Run(1);
  EXPECT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), kLength);
  EXPECT_EQ(platform.cpu().stats().decode_misses, kLength + 1);
  EXPECT_EQ(platform.cpu().code_entries(), kSets);
  EXPECT_EQ(platform.fast_path_stats().code_entries, kSets);

  platform.cpu().RestoreArchState(platform.cpu().SaveArchState());
  EXPECT_EQ(platform.cpu().code_entries(), 0u);
  // The rewound pool refills to the same bound.
  RunPasses(platform, 0x30000, 0);
  EXPECT_EQ(platform.cpu().code_entries(), kSets);
  EXPECT_EQ(platform.cpu().stats().decode_misses, 2 * (kLength + 1));
}

// A trustlet storing round three data regions keeps one write window per
// region. Each invalidation below must reach every way, not just the most
// recently used one.
class WindowInvalidationTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kStart = 0x11000;
  static constexpr uint32_t kData[3] = {0x12000, 0x13000, 0x14000};

  WindowInvalidationTest() : platform_(PlatformConfig{}) {
    SetMpuRegion(platform_, 0, 0x11000, 0x11100,
                 kMpuAttrEnable | kMpuAttrCode);
    SetMpuRule(platform_, 0, 0, 0, true, false, true);
    for (int i = 0; i < 3; ++i) {
      SetMpuRegion(platform_, i + 1, kData[i], kData[i] + 0x100,
                   kMpuAttrEnable);
      SetMpuRule(platform_, i + 1, 0, static_cast<uint32_t>(i + 1), true,
                 true, false);
    }
    EnableMpu(platform_);
    Install(platform_, R"(
.org 0x11000
start:
    li   r1, 0x12000
    li   r2, 0x13000
    li   r3, 0x14000
    movi r5, 0
loop:
    stw  r5, [r1]
    stw  r5, [r2]
    stw  r5, [r3]
    addi r5, r5, 1
    bne  r5, r6, loop
    halt
)");
    // Warm all three ways, then prove they hold: a second run misses none.
    RunPasses(platform_, kStart, 2);
    const uint64_t misses = platform_.cpu().stats().data_window_misses;
    RunPasses(platform_, kStart, 4);
    EXPECT_EQ(platform_.cpu().stats().data_window_misses, misses);
  }

  Platform platform_;
};

TEST_F(WindowInvalidationTest, RevokedWritePermissionFaultsInEveryWay) {
  // Region 1 was stored first in each pass, so its window sits behind the
  // other two. Revoke the trustlet's write permission on it.
  SetMpuRule(platform_, 1, 0, 1, true, false, false);
  platform_.cpu().Reset(kStart);
  platform_.cpu().set_reg(6, 4);
  platform_.Run(1'000'000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_TRUE(platform_.cpu().trap().valid);
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcMpuFault);
  EXPECT_EQ(platform_.cpu().trap().addr, kData[0]);
  uint32_t fault_addr = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(kMpuMmioBase + kMpuRegFaultAddr,
                                           &fault_addr));
  EXPECT_EQ(fault_addr, kData[0]);
  uint32_t cell = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(kData[0], &cell));
  EXPECT_EQ(cell, 3u);  // The last value of the warm run, not overwritten.
}

// Records the addresses of the stores the EA-MPU checked.
class WriteCheckRecorder : public EventSink {
 public:
  bool WantsMpuCheckEvents() const override { return true; }
  void OnMpuCheck(const MpuCheckEvent& event) override {
    if (event.kind == AccessKind::kWrite) {
      addrs.push_back(event.addr);
    }
  }
  std::vector<uint32_t> addrs;
};

TEST_F(WindowInvalidationTest, FusionSuppressionSendsEveryStoreThroughCheck) {
  // Attaching a per-check consumer calls Cpu::SetFusionSuppressed(true).
  WriteCheckRecorder recorder;
  platform_.AddEventSink(&recorder);
  RunPasses(platform_, kStart, 1);
  platform_.RemoveEventSink(&recorder);
  EXPECT_EQ(recorder.addrs,
            (std::vector<uint32_t>{kData[0], kData[1], kData[2]}));
}

TEST_F(WindowInvalidationTest, SnapshotRestoreSendsEveryStoreThroughCheck) {
  Result<std::vector<uint8_t>> snapshot = SavePlatform(platform_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(RestorePlatform(&platform_, *snapshot).ok());
  const uint64_t misses = platform_.cpu().stats().data_window_misses;
  RunPasses(platform_, kStart, 1);
  // Each store took the full bus path (Check included) and rebuilt its way.
  EXPECT_EQ(platform_.cpu().stats().data_window_misses - misses, 3u);
}

}  // namespace
}  // namespace trustlite
