// Copyright 2026 The TrustLite Reproduction Authors.
//
// Invalidation tests for the simulator fast path: the decoded-instruction
// cache, the EA-MPU subject and coverage memos, and the bus routing
// memoization. These caches are host-side speedups only — every test here
// pins down a case where stale cached state would change guest-visible
// behavior, and checks that it does not.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/isa.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"
#include "src/mpu/ea_mpu.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"
#include "tests/reference_state_digest.h"

namespace trustlite {
namespace {

// ---------------------------------------------------------------------------
// Decode cache: self-modifying code.

// A loop body patches its own first instruction (addi r3, r3, 1 ->
// addi r3, r3, 100) through a guest store, then runs the patched site a
// second time. A decode cache that failed to notice the store would replay
// the stale decode and end with r3 == 2 instead of 101.
TEST(FastPathDecodeTest, SelfModifyingCodeIsRedecoded) {
  Instruction patched;
  patched.opcode = Opcode::kAddi;
  patched.rd = 3;
  patched.rs1 = 3;
  patched.imm = 100;
  char source[512];
  std::snprintf(source, sizeof(source), R"(
.org 0x30000
start:
    la  r1, target
    li  r2, 0x%x
    movi r3, 0
    movi r5, 0
    li  r6, 2
again:
target:
    addi r3, r3, 1
    stw r2, [r1]
    addi r5, r5, 1
    bne r5, r6, again
    halt
)",
                Encode(patched));

  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Result<AsmOutput> out = Assemble(source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  ASSERT_TRUE(platform.bus().HostWriteBytes(base = 0x30000, out->Flatten(&base)));
  platform.cpu().Reset(out->symbols.at("start"));
  platform.Run(1000);
  ASSERT_TRUE(platform.cpu().halted());
  // Pass 1 adds 1, pass 2 runs the patched instruction and adds 100.
  EXPECT_EQ(platform.cpu().reg(3), 101u);
  EXPECT_EQ(platform.cpu().reg(5), 2u);
  // The loop tail (stw/addi/bne) re-executes unmodified and must hit.
  EXPECT_GT(platform.cpu().stats().decode_hits, 0u);
  EXPECT_GT(platform.cpu().stats().decode_misses, 0u);
}

// Host-path stores (loaders, debuggers) must also reach a previously
// executed instruction: the word comparison re-decodes the new word even
// though no guest store happened.
TEST(FastPathDecodeTest, HostPatchIsRedecoded) {
  PlatformConfig config;
  config.with_mpu = false;
  Platform platform(config);
  Result<AsmOutput> out = Assemble(R"(
.org 0x30000
start:
    movi r3, 0
site:
    addi r3, r3, 1
    halt
)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  uint32_t base = 0;
  ASSERT_TRUE(platform.bus().HostWriteBytes(0x30000, out->Flatten(&base)));
  const uint32_t site = out->symbols.at("site");
  platform.cpu().Reset(out->symbols.at("start"));
  platform.Run(100);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 1u);

  Instruction patched;
  patched.opcode = Opcode::kAddi;
  patched.rd = 3;
  patched.rs1 = 3;
  patched.imm = 42;
  ASSERT_TRUE(platform.bus().HostWriteWord(site, Encode(patched)));
  platform.cpu().Reset(out->symbols.at("start"));
  platform.Run(100);
  ASSERT_TRUE(platform.cpu().halted());
  EXPECT_EQ(platform.cpu().reg(3), 42u);
}

// ---------------------------------------------------------------------------
// EA-MPU memos. Fixture mirrors mpu_test.cc: two trustlet code/data region
// pairs inside one RAM, configured through the guest-visible MMIO interface
// (so every reprogramming step goes down the same invalidation path the
// paper's secure loader would use).

constexpr uint32_t kCodeA = 0x0001'0000;
constexpr uint32_t kCodeAEnd = 0x0001'0100;
constexpr uint32_t kDataA = 0x0001'1000;
constexpr uint32_t kDataAEnd = 0x0001'1100;
constexpr uint32_t kCodeB = 0x0001'2000;
constexpr uint32_t kCodeBEnd = 0x0001'2100;
constexpr uint32_t kOpenRam = 0x0001'8000;

constexpr int kRegionCodeA = 0;
constexpr int kRegionDataA = 1;
constexpr int kRegionCodeB = 2;

class FastPathMpuTest : public ::testing::Test {
 protected:
  FastPathMpuTest()
      : ram_("ram", kSramBase, kSramSize), mpu_(kMpuMmioBase, 16, 32) {
    bus_.Attach(&ram_);
    bus_.Attach(&mpu_);
    bus_.SetProtectionUnit(&mpu_);
    SetRegion(kRegionCodeA, kCodeA, kCodeAEnd, kMpuAttrEnable | kMpuAttrCode);
    SetRegion(kRegionDataA, kDataA, kDataAEnd, kMpuAttrEnable);
    SetRegion(kRegionCodeB, kCodeB, kCodeBEnd, kMpuAttrEnable | kMpuAttrCode);
  }

  void SetRegion(int index, uint32_t base, uint32_t end, uint32_t attr) {
    const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                         static_cast<uint32_t>(index) * kMpuRegionStride;
    ASSERT_TRUE(bus_.HostWriteWord(reg + 0, base));
    ASSERT_TRUE(bus_.HostWriteWord(reg + 4, end));
    ASSERT_TRUE(bus_.HostWriteWord(reg + 8, attr));
  }

  void SetRule(int index, uint32_t subject, uint32_t object, bool r, bool w,
               bool x) {
    ASSERT_TRUE(bus_.HostWriteWord(
        kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4,
        EncodeMpuRule(subject, object, r, w, x)));
  }

  void Enable(uint32_t extra = 0) {
    ASSERT_TRUE(
        bus_.HostWriteWord(kMpuMmioBase + kMpuRegCtrl, kMpuCtrlEnable | extra));
  }

  AccessResult Access(uint32_t ip, AccessKind kind, uint32_t addr,
                      uint32_t width = 4, bool privileged = false) {
    AccessContext ctx;
    ctx.curr_ip = ip;
    ctx.kind = kind;
    ctx.privileged = privileged;
    return mpu_.Check(ctx, addr, width);
  }

  void AckFault() {
    ASSERT_TRUE(bus_.HostWriteWord(kMpuMmioBase + kMpuRegFaultInfo, 0));
  }

  Bus bus_;
  Ram ram_;
  EaMpu mpu_;
};

TEST_F(FastPathMpuTest, RuleRewriteInvalidatesDecisionCache) {
  Enable();
  SetRule(0, kRegionCodeA, kRegionDataA, true, true, false);
  // Warm the subject and coverage memos.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(Access(kCodeA + 4, AccessKind::kRead, kDataA), AccessResult::kOk);
  }
  // Revoke read: the earlier allow must not survive the rule write.
  const uint64_t gen = mpu_.config_generation();
  SetRule(0, kRegionCodeA, kRegionDataA, false, true, false);
  EXPECT_GT(mpu_.config_generation(), gen);
  EXPECT_EQ(Access(kCodeA + 4, AccessKind::kRead, kDataA),
            AccessResult::kProtFault);
  AckFault();
  EXPECT_EQ(Access(kCodeA + 4, AccessKind::kWrite, kDataA), AccessResult::kOk);
}

TEST_F(FastPathMpuTest, RegionReprogramInvalidatesSubjectCache) {
  Enable();
  SetRule(0, kRegionCodeA, kRegionDataA, true, true, false);
  // Warm: IP inside code region A resolves to subject 0 and may read data A.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(Access(kCodeA + 8, AccessKind::kRead, kDataA), AccessResult::kOk);
  }
  EXPECT_GT(mpu_.stats().subject_hits, 0u);
  // Move code region A elsewhere: the same IP is now an unprotected subject
  // and must lose access, even though the rule itself is unchanged.
  SetRegion(kRegionCodeA, kCodeB, kCodeBEnd, kMpuAttrEnable | kMpuAttrCode);
  EXPECT_EQ(Access(kCodeA + 8, AccessKind::kRead, kDataA),
            AccessResult::kProtFault);
}

TEST_F(FastPathMpuTest, LockingARegionInvalidatesAndThenFreezes) {
  Enable();
  SetRule(0, kRegionCodeA, kRegionDataA, true, true, false);
  ASSERT_EQ(Access(kCodeA, AccessKind::kRead, kDataA), AccessResult::kOk);
  // Lock data region A and simultaneously disable it: the lock write itself
  // must invalidate (the region stops covering kDataA -> open memory), and
  // later writes to the locked region are ignored without reviving it.
  const uint32_t attr_reg =
      kMpuMmioBase + kMpuRegionBank + kRegionDataA * kMpuRegionStride + 8;
  ASSERT_TRUE(bus_.HostWriteWord(attr_reg, kMpuAttrLock));
  EXPECT_EQ(Access(kOpenRam, AccessKind::kWrite, kDataA), AccessResult::kOk);
  ASSERT_TRUE(bus_.HostWriteWord(attr_reg, kMpuAttrEnable));  // Ignored.
  EXPECT_EQ(Access(kOpenRam, AccessKind::kWrite, kDataA), AccessResult::kOk);
}

TEST_F(FastPathMpuTest, CompatModeToggleInvalidatesDecisions) {
  Enable();
  SetRule(0, kMpuSubjectAny, kRegionCodeA, false, false, true);
  // Warm execution-aware decisions: B fetching past A's entry vector faults
  // (the wildcard execute grant only covers the entry vector).
  ASSERT_EQ(Access(kCodeB, AccessKind::kFetch, kCodeA + 8),
            AccessResult::kProtFault);
  AckFault();
  // Compat mode drops the entry-vector restriction: the same fetch now
  // passes under rule 0's execute grant (any subject, any offset).
  Enable(kMpuCtrlCompatMode);
  EXPECT_EQ(Access(kCodeB, AccessKind::kFetch, kCodeA + 8), AccessResult::kOk);
  // And back: the compat-mode allow must not stick either.
  Enable();
  EXPECT_EQ(Access(kCodeB, AccessKind::kFetch, kCodeA + 8),
            AccessResult::kProtFault);
}

TEST_F(FastPathMpuTest, EntryVectorStaysExactAfterWarmup) {
  Enable();
  SetRule(0, kRegionCodeB, kRegionCodeB, true, false, true);
  SetRule(1, kMpuSubjectAny, kRegionCodeB, false, false, true);
  // Warm up hard on both the entry vector (foreign subject) and the region
  // body (B itself).
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(Access(kCodeA, AccessKind::kFetch, kCodeB), AccessResult::kOk);
    ASSERT_EQ(Access(kCodeB, AccessKind::kFetch, kCodeB + 8),
              AccessResult::kOk);
  }
  // A foreign fetch one word past the entry vector must still fault — a
  // memo keyed on (subject, object) instead of the exact address would
  // reuse the entry-vector allow here.
  EXPECT_EQ(Access(kCodeA, AccessKind::kFetch, kCodeB + 4),
            AccessResult::kProtFault);
  uint32_t fault_addr = 0;
  ASSERT_TRUE(bus_.HostReadWord(kMpuMmioBase + kMpuRegFaultAddr, &fault_addr));
  EXPECT_EQ(fault_addr, kCodeB + 4);
  AckFault();
  // And B's own warmed body fetches must not leak to the foreign subject.
  EXPECT_EQ(Access(kCodeA, AccessKind::kFetch, kCodeB + 8),
            AccessResult::kProtFault);
}

TEST_F(FastPathMpuTest, ResetInvalidatesEverything) {
  Enable();
  SetRule(0, kRegionCodeA, kRegionDataA, true, true, false);
  ASSERT_EQ(Access(kCodeA, AccessKind::kRead, kDataA), AccessResult::kOk);
  mpu_.Reset();
  // Disabled unit: everything passes, and reprogramming from scratch yields
  // fresh decisions (no stale subject/coverage intervals).
  ASSERT_EQ(Access(kCodeA, AccessKind::kRead, kDataA), AccessResult::kOk);
  SetRegion(kRegionDataA, kDataA, kDataAEnd, kMpuAttrEnable);
  Enable();
  EXPECT_EQ(Access(kCodeA, AccessKind::kRead, kDataA),
            AccessResult::kProtFault);  // Region restored, rule gone.
}

TEST_F(FastPathMpuTest, FaultAcknowledgeDoesNotInvalidate) {
  Enable();
  ASSERT_EQ(Access(kOpenRam, AccessKind::kRead, kDataA),
            AccessResult::kProtFault);
  const uint64_t gen = mpu_.config_generation();
  AckFault();
  // The fault-path hot loop (fault, ack, retry) must not thrash the memos.
  EXPECT_EQ(mpu_.config_generation(), gen);
  ASSERT_EQ(Access(kOpenRam, AccessKind::kRead, kDataA),
            AccessResult::kProtFault);
  EXPECT_GT(mpu_.stats().subject_hits, 0u);
}

TEST_F(FastPathMpuTest, CountersAccumulate) {
  Enable();
  SetRule(0, kRegionCodeA, kRegionDataA, true, true, false);
  mpu_.ResetStats();
  for (int i = 0; i < 4; ++i) {
    Access(kCodeA, AccessKind::kRead, kDataA);
    Access(kCodeA, AccessKind::kFetch, kCodeA + 4);
  }
  const MpuStats& stats = mpu_.stats();
  EXPECT_EQ(stats.checks, 8u);
  EXPECT_GT(stats.subject_hits, 0u);
  // One rule evaluation per check: 4 reads decided on one covered interval
  // and 4 fetches.
  EXPECT_EQ(stats.decision_misses, 4u);
  EXPECT_EQ(stats.fetch_misses, 4u);
}

// ---------------------------------------------------------------------------
// Bus routing and host byte-run helpers.

TEST(FastPathBusTest, HostByteRunsCrossDeviceBoundaries) {
  Bus bus;
  Ram lo("lo", 0x1000, 0x100);
  Ram hi("hi", 0x1100, 0x100);
  bus.Attach(&hi);  // Out-of-order attach: the table must still sort.
  bus.Attach(&lo);
  std::vector<uint8_t> pattern(0x80);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  // Write a run straddling the lo/hi boundary, read it back in one run.
  ASSERT_TRUE(bus.HostWriteBytes(0x10C0, pattern));
  std::vector<uint8_t> readback;
  ASSERT_TRUE(bus.HostReadBytes(0x10C0, 0x80, &readback));
  EXPECT_EQ(readback, pattern);
  // Runs extending past the last device fail without partial surprises.
  EXPECT_FALSE(bus.HostReadBytes(0x11C0, 0x80, &readback));
  EXPECT_FALSE(bus.HostWriteBytes(0x11C0, pattern));
  // A run starting in unmapped space fails.
  EXPECT_FALSE(bus.HostReadBytes(0x0F80, 0x100, &readback));
}

TEST(FastPathBusTest, RouteMemoizationCountsHits) {
  Bus bus;
  Ram ram("ram", 0x1000, 0x1000);
  bus.Attach(&ram);
  uint32_t value = 0;
  ASSERT_TRUE(bus.HostReadWord(0x1000, &value));
  const uint64_t misses = bus.stats().route_misses;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bus.HostReadWord(0x1000 + static_cast<uint32_t>(i) * 4,
                                 &value));
  }
  EXPECT_GT(bus.stats().route_hits, 0u);
  EXPECT_EQ(bus.stats().route_misses, misses);  // Same device every time.
}

TEST(FastPathBusTest, MemoryGenerationTracksStores) {
  Bus bus;
  Ram ram("ram", 0x1000, 0x1000);
  EaMpu mpu(kMpuMmioBase, 16, 32);
  bus.Attach(&ram);
  bus.Attach(&mpu);
  const uint64_t gen = bus.memory_generation();
  uint32_t value = 0;
  ASSERT_TRUE(bus.HostReadWord(0x1000, &value));
  EXPECT_EQ(bus.memory_generation(), gen);  // Reads do not bump.
  ASSERT_TRUE(bus.HostWriteWord(0x1000, 0x1234));
  EXPECT_GT(bus.memory_generation(), gen);
  // MMIO register writes are not memory stores.
  const uint64_t gen2 = bus.memory_generation();
  ASSERT_TRUE(bus.HostWriteWord(kMpuMmioBase + kMpuRegCtrl, 0));
  EXPECT_EQ(bus.memory_generation(), gen2);
}

// ---------------------------------------------------------------------------
// Write windows and the write map (DESIGN.md §15, "Node memory: pages on
// demand"). A store window asks its memory for a mutable span of exactly its
// range, which marks those pages when the window is built; stores through
// the window do no bookkeeping. The byte-scan reference digest reads every
// byte and never the map, so a page the map missed changes it.

constexpr uint32_t kWinCode = kDramBase;
constexpr uint32_t kWinData = kSramBase + 0x1800;     // SRAM pages 1 and 2.
constexpr uint32_t kWinDataEnd = kSramBase + 0x2800;

void SetWindowRegion(Platform& p, int index, uint32_t base, uint32_t end,
                     uint32_t attr) {
  const uint32_t reg = kMpuMmioBase + kMpuRegionBank +
                       static_cast<uint32_t>(index) * kMpuRegionStride;
  ASSERT_TRUE(p.bus().HostWriteWord(reg + 0, base));
  ASSERT_TRUE(p.bus().HostWriteWord(reg + 4, end));
  ASSERT_TRUE(p.bus().HostWriteWord(reg + 8, attr));
}

std::vector<uint32_t> MarkedPages(const Ram& ram) {
  std::vector<uint32_t> pages;
  for (size_t i = 0; i < ram.write_map().size(); ++i) {
    if (ram.write_map()[i] != 0) {
      pages.push_back(static_cast<uint32_t>(i));
    }
  }
  return pages;
}

TEST(FastPathWriteMapTest, WindowMarksItsRangeWhenBuiltAndOutlivesFillZero) {
  Platform p;
  // Code in DRAM, a data region over the boundary of SRAM pages 1 and 2.
  SetWindowRegion(p, 0, kWinCode, kWinCode + 0x100,
                  kMpuAttrEnable | kMpuAttrCode);
  SetWindowRegion(p, 1, kWinData, kWinDataEnd, kMpuAttrEnable);
  for (const auto& [index, rule] :
       {std::pair<int, uint32_t>{0, EncodeMpuRule(0, 0, true, false, true)},
        {1, EncodeMpuRule(0, 1, true, true, false)},
        {2, EncodeMpuRule(kMpuSubjectAny, 0, false, false, true)}}) {
    ASSERT_TRUE(p.bus().HostWriteWord(
        kMpuMmioBase + kMpuRuleBank + static_cast<uint32_t>(index) * 4, rule));
  }
  ASSERT_TRUE(p.bus().HostWriteWord(kMpuMmioBase + kMpuRegCtrl,
                                    kMpuCtrlEnable));
  char source[256];
  std::snprintf(source, sizeof(source), R"(
    .org 0x%x
start:
    li   r4, 0x%x
    li   r5, 0x%x
    li   r1, 0x5A5A
    stw  r1, [r4]
second:
    stw  r1, [r5]
    halt
)", kWinCode, kWinData, kWinDataEnd - 0x400);
  Result<AsmOutput> out = Assemble(source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    ASSERT_TRUE(p.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  const uint32_t start = out->symbols.at("start");
  p.cpu().Reset(start);

  // The first store misses, goes down the bus and builds the window: both
  // of its pages are marked before anything is stored through it.
  p.Run((out->symbols.at("second") - start) / 4);
  ASSERT_EQ(p.cpu().ip(), out->symbols.at("second"));
  EXPECT_EQ(MarkedPages(p.sram()), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(MarkedPages(p.dram()), (std::vector<uint32_t>{0}));

  // A host clear while the window is live zeroes the pages and keeps the
  // marks, so the store through the window into page 2 is still walked.
  p.sram().Fill(0);
  const uint64_t hits = p.cpu().stats().data_window_hits;
  p.Run(100);
  ASSERT_TRUE(p.cpu().halted());
  EXPECT_EQ(p.cpu().stats().data_window_hits, hits + 1);
  EXPECT_EQ(MarkedPages(p.sram()), (std::vector<uint32_t>{1, 2}));
  uint32_t stored = 0;
  ASSERT_TRUE(p.bus().HostReadWord(kWinDataEnd - 0x400, &stored));
  EXPECT_EQ(stored, 0x5A5Au);
  EXPECT_EQ(PlatformStateDigest(p), Sha256Hash(ReferenceDigestStream(p)));
}

}  // namespace
}  // namespace trustlite
