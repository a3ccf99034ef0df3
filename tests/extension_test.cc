// Copyright 2026 The TrustLite Reproduction Authors.
//
// Tests for the implemented future-work extensions:
//  * DMA engines (paper Sec. 6): the classic bypass attack, and the
//    execution-aware DMA defense (OWNER identity checked by the EA-MPU).
//  * Hardware trustlets (paper Sec. 3.6): hardwired MPU regions/rules that
//    survive reset and resist reprogramming.
//  * Memory/engine timing (paper Sec. 9): DRAM wait states and the SHA
//    engine's per-block latency knob.

#include <gtest/gtest.h>

#include "src/dev/dma.h"
#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

TrustletBuildSpec SecretSpec() {
  TrustletBuildSpec spec;
  spec.name = "SEC";
  spec.code_addr = 0x11000;
  spec.data_addr = 0x12000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = R"(
tl_main:
    li  r4, TL_DATA
    li  r5, 0x5EC12E7
    stw r5, [r4 + 16]
park:
    swi 0
    jmp park
)";
  return spec;
}

// Boots a platform with a secret-holding trustlet and a DMA engine.
struct DmaFixture {
  explicit DmaFixture(DmaEngine::Mode mode)
      : platform([mode] {
          PlatformConfig config;
          config.with_dma = true;
          config.dma_mode = mode;
          return config;
        }()) {
    SystemImage image;
    image.Add(*BuildTrustlet(SecretSpec()));
    NanosConfig os_config;
    image.Add(*BuildNanos(os_config));
    EXPECT_TRUE(platform.InstallImage(image).ok());
    Result<LoadReport> report = platform.BootAndLaunch();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    // Let the trustlet run once so the secret exists.
    platform.Run(20000);
    uint32_t secret = 0;
    EXPECT_TRUE(platform.bus().HostReadWord(0x12010, &secret));
    EXPECT_EQ(secret, 0x5EC12E7u);
  }

  // Programs the DMA engine from "software" (host stand-in for the OS; the
  // DMA MMIO block is uncovered in this setup, so the OS could do this).
  uint32_t Transfer(uint32_t src, uint32_t dst, uint32_t len) {
    Bus& bus = platform.bus();
    EXPECT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegSrc, src));
    EXPECT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegDst, dst));
    EXPECT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegLen, len));
    EXPECT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegCtrl, kDmaCtrlStart));
    uint32_t status = 0;
    EXPECT_TRUE(bus.HostReadWord(kDmaBase + kDmaRegStatus, &status));
    return status;
  }

  Platform platform;
};

TEST(DmaTest, UncheckedDmaExfiltratesTrustletSecrets) {
  DmaFixture fixture(DmaEngine::Mode::kUnchecked);
  // The attack of [41]: DMA the trustlet's private data into open memory.
  const uint32_t status = fixture.Transfer(0x12010, 0x30000, 4);
  EXPECT_EQ(status, kDmaStatusDone);
  uint32_t leaked = 0;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x30000, &leaked));
  EXPECT_EQ(leaked, 0x5EC12E7u);  // Isolation broken: this is the problem.
}

TEST(DmaTest, UncheckedDmaCorruptsTrustletCode) {
  DmaFixture fixture(DmaEngine::Mode::kUnchecked);
  ASSERT_TRUE(fixture.platform.bus().HostWriteWord(0x30000, 0xDEADBEEF));
  const uint32_t status = fixture.Transfer(0x30000, 0x11000, 4);
  EXPECT_EQ(status, kDmaStatusDone);
  uint32_t code_word = 0;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x11000, &code_word));
  EXPECT_EQ(code_word, 0xDEADBEEFu);  // Write-protected code overwritten.
}

TEST(DmaTest, ExecutionAwareDmaBlocksForeignReads) {
  DmaFixture fixture(DmaEngine::Mode::kExecutionAware);
  // OWNER = somewhere in open memory (an untrusted OS identity).
  ASSERT_TRUE(
      fixture.platform.bus().HostWriteWord(kDmaBase + kDmaRegOwner, 0x30000));
  ASSERT_TRUE(fixture.platform.bus().HostWriteWord(0x30100, 0));
  const uint32_t status = fixture.Transfer(0x12010, 0x30100, 4);
  EXPECT_EQ(status, kDmaStatusFault);
  uint32_t leaked = 1;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x30100, &leaked));
  EXPECT_EQ(leaked, 0u);  // Nothing moved.
}

TEST(DmaTest, ExecutionAwareDmaBlocksForeignWrites) {
  DmaFixture fixture(DmaEngine::Mode::kExecutionAware);
  ASSERT_TRUE(
      fixture.platform.bus().HostWriteWord(kDmaBase + kDmaRegOwner, 0x30000));
  uint32_t before = 0;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x11000, &before));
  const uint32_t status = fixture.Transfer(0x30000, 0x11000, 4);
  EXPECT_EQ(status, kDmaStatusFault);
  uint32_t after = 0;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x11000, &after));
  EXPECT_EQ(before, after);
}

TEST(DmaTest, ExecutionAwareDmaWithTrustletOwnerMovesOwnData) {
  DmaFixture fixture(DmaEngine::Mode::kExecutionAware);
  // OWNER inside the trustlet's code region: the engine acts as that
  // trustlet (the Secure Loader would set this up for a trustlet that was
  // granted the DMA engine).
  ASSERT_TRUE(
      fixture.platform.bus().HostWriteWord(kDmaBase + kDmaRegOwner, 0x11004));
  const uint32_t status = fixture.Transfer(0x12010, 0x30200, 4);
  EXPECT_EQ(status, kDmaStatusDone);
  uint32_t moved = 0;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x30200, &moved));
  EXPECT_EQ(moved, 0x5EC12E7u);  // Deliberate export by the data's owner.
}

TEST(DmaTest, NoPartialTransferOnMidwayFault) {
  DmaFixture fixture(DmaEngine::Mode::kExecutionAware);
  ASSERT_TRUE(
      fixture.platform.bus().HostWriteWord(kDmaBase + kDmaRegOwner, 0x30000));
  // Source straddles open memory into the trustlet's data region: the
  // second word would fault, so not even the first may move.
  ASSERT_TRUE(fixture.platform.bus().HostWriteWord(0x11FFC, 0x0BE4));
  const uint32_t status = fixture.Transfer(0x11FFC, 0x30300, 8);
  EXPECT_EQ(status, kDmaStatusFault);
  uint32_t dst0 = 1;
  ASSERT_TRUE(fixture.platform.bus().HostReadWord(0x30300, &dst0));
  EXPECT_EQ(dst0, 0u);
}

TEST(DmaTest, OwnerRegisterLocks) {
  DmaFixture fixture(DmaEngine::Mode::kExecutionAware);
  Bus& bus = fixture.platform.bus();
  ASSERT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegOwner, 0x11004));
  ASSERT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegCtrl, kDmaCtrlLockOwner));
  // A compromised OS tries to re-own the engine.
  ASSERT_TRUE(bus.HostWriteWord(kDmaBase + kDmaRegOwner, 0x30000));
  uint32_t owner = 0;
  ASSERT_TRUE(bus.HostReadWord(kDmaBase + kDmaRegOwner, &owner));
  EXPECT_EQ(owner, 0x11004u);
  EXPECT_TRUE(fixture.platform.dma()->owner_locked());
}

// ---- Hardware trustlets (Sec. 3.6) ----

TEST(HardwiredMpuTest, HardwiredEntriesSurviveResetAndWrites) {
  EaMpu mpu(kMpuMmioBase, 8, 16);
  MpuRegion rom;
  rom.base = 0x400;
  rom.end = 0x800;
  rom.attr = kMpuAttrEnable | kMpuAttrCode;
  mpu.HardwireRegion(0, rom);
  mpu.HardwireRule(0, EncodeMpuRule(0, 0, true, false, true));
  mpu.HardwireEnable();
  EXPECT_TRUE(mpu.enabled());
  EXPECT_TRUE(mpu.IsHardwiredRegion(0));
  EXPECT_FALSE(mpu.IsHardwiredRegion(1));

  // Software writes bounce off.
  mpu.Write(kMpuRegionBank + 0, 4, 0xDEAD);
  mpu.Write(kMpuRuleBank + 0, 4, 0);
  mpu.Write(kMpuRegCtrl, 4, 0);  // Try to disable the unit.
  uint32_t value = 0;
  mpu.Read(kMpuRegionBank + 0, 4, &value);
  EXPECT_EQ(value, 0x400u);
  EXPECT_EQ(mpu.rule(0), EncodeMpuRule(0, 0, true, false, true));
  EXPECT_TRUE(mpu.enabled());

  // Reset clears programmable slots but keeps hardwired ones.
  mpu.Write(kMpuRegionBank + kMpuRegionStride, 4, 0x9000);  // Programmable.
  mpu.Reset();
  mpu.Read(kMpuRegionBank + 0, 4, &value);
  EXPECT_EQ(value, 0x400u);
  mpu.Read(kMpuRegionBank + kMpuRegionStride, 4, &value);
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(mpu.enabled());
}

TEST(HardwiredMpuTest, RomTrustletProtectedWithoutAnyLoader) {
  // A SMART-like instantiation: a hardwired code region over PROM with a
  // hardwired key region accessible only to it — protection exists from
  // power-on with zero software configuration.
  Platform platform;
  EaMpu* mpu = platform.mpu();
  MpuRegion rom;
  rom.base = kPromBase + 0x200;
  rom.end = kPromBase + 0x400;
  rom.attr = kMpuAttrEnable | kMpuAttrCode;
  MpuRegion key;
  key.base = kPromBase + 0xF00;
  key.end = kPromBase + 0xF20;
  key.attr = kMpuAttrEnable;
  mpu->HardwireRegion(0, rom);
  mpu->HardwireRegion(1, key);
  mpu->HardwireRule(0, EncodeMpuRule(0, 0, true, false, true));  // self x
  mpu->HardwireRule(1, EncodeMpuRule(0, 1, true, false, false)); // key read
  mpu->HardwireRule(2, EncodeMpuRule(kMpuSubjectAny, 0, false, false, true));
  mpu->HardwireEnable();

  // PROM contents: routine reads the key and stores it to open RAM.
  Result<AsmOutput> rom_code = Assemble(R"(
.org 0x200
rom_entry:
    li  r1, 0xF00
    ldw r2, [r1]
    li  r3, 0x30000
    stw r2, [r3]
    halt
)");
  ASSERT_TRUE(rom_code.ok());
  uint32_t base = 0;
  platform.prom().LoadBytes(0x200, rom_code->Flatten(&base));
  platform.prom().LoadBytes(0xF00,
                            std::vector<uint8_t>{0xEF, 0xBE, 0xAD, 0xDE});

  // Untrusted code may call the ROM trustlet (entry vector) ...
  Result<AsmOutput> caller = Assemble(R"(
.org 0x31000
    movi r3, 0x200
    jr  r3
)");
  ASSERT_TRUE(caller.ok());
  platform.bus().HostWriteBytes(0x31000, caller->Flatten(&base));
  platform.cpu().Reset(0x31000);
  platform.Run(100);
  uint32_t exported = 0;
  ASSERT_TRUE(platform.bus().HostReadWord(0x30000, &exported));
  EXPECT_EQ(exported, 0xDEADBEEFu);

  // ... but cannot read the key directly, even right after a reset with no
  // loader having run.
  platform.HardReset();
  EXPECT_TRUE(platform.mpu()->enabled());
  Result<AsmOutput> thief = Assemble(R"(
.org 0x31000
    li  r1, 0xF00
    ldw r2, [r1]
    halt
)");
  ASSERT_TRUE(thief.ok());
  platform.bus().HostWriteBytes(0x31000, thief->Flatten(&base));
  platform.cpu().Reset(0x31000);
  platform.Run(100);
  ASSERT_TRUE(platform.cpu().trap().valid);
  EXPECT_EQ(platform.cpu().trap().exception_class, kExcMpuFault);
  EXPECT_EQ(platform.cpu().reg(2), 0u);
}

// ---- Timing extensions (Sec. 9) ----

TEST(TimingTest, DramWaitStatesChargeCycles) {
  auto run = [](uint32_t wait_states) {
    PlatformConfig config;
    config.with_mpu = false;
    config.dram_wait_states = wait_states;
    Platform platform(config);
    Result<AsmOutput> out = Assemble(R"(
.org 0x30000
    li  r1, 0x100000       ; external DRAM
    movi r2, 0
    movi r3, 100
loop:
    stw r2, [r1]
    ldw r4, [r1]
    addi r2, r2, 1
    bne r2, r3, loop
    halt
)");
    uint32_t base = 0;
    platform.bus().HostWriteBytes(0x30000, out->Flatten(&base));
    platform.cpu().Reset(0x30000);
    platform.Run(10000);
    return platform.cpu().cycles();
  };
  const uint64_t fast = run(0);
  const uint64_t slow = run(3);
  // 200 DRAM accesses x 3 wait states.
  EXPECT_EQ(slow - fast, 600u);
}

TEST(TimingTest, ShaEngineBlockLatency) {
  auto run = [](uint32_t cycles_per_block) {
    PlatformConfig config;
    config.with_mpu = false;
    config.sha_cycles_per_block = cycles_per_block;
    Platform platform(config);
    // Hash 128 bytes (2 blocks) + finalize (1 padding block).
    Result<AsmOutput> out = Assemble(R"(
.org 0x30000
    li  r1, 0xF0004000
    movi r2, 1
    stw r2, [r1 + 0]       ; INIT
    movi r3, 0
    movi r4, 32            ; 32 words = 128 bytes
loop:
    stw r3, [r1 + 4]       ; DATA_IN
    addi r3, r3, 1
    bne r3, r4, loop
    movi r2, 2
    stw r2, [r1 + 0]       ; FINALIZE
    halt
)");
    uint32_t base = 0;
    platform.bus().HostWriteBytes(0x30000, out->Flatten(&base));
    platform.cpu().Reset(0x30000);
    platform.Run(10000);
    return platform.cpu().cycles();
  };
  const uint64_t fast = run(0);
  const uint64_t slow = run(50);
  // 2 data blocks complete during absorb + INIT? no (init charges too in our
  // model? INIT is a CTRL write -> charged) + FINALIZE: CTRL writes = 2.
  // Total charged events: 2 block completions + 2 CTRL writes = 4 x 50.
  EXPECT_EQ(slow - fast, 200u);
}

TEST(TimingTest, SramRemainsZeroWait) {
  PlatformConfig config;
  Platform platform(config);
  EXPECT_EQ(platform.sram().WaitStates(0, 4, AccessKind::kRead), 0u);
  EXPECT_EQ(platform.dram().WaitStates(0, 4, AccessKind::kRead), 0u);
  PlatformConfig slow_config;
  slow_config.dram_wait_states = 5;
  Platform slow(slow_config);
  EXPECT_EQ(slow.dram().WaitStates(0, 4, AccessKind::kRead), 5u);
  EXPECT_EQ(slow.sram().WaitStates(0, 4, AccessKind::kRead), 0u);
}

}  // namespace
}  // namespace trustlite
