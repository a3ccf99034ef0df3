// Copyright 2026 The TrustLite Reproduction Authors.
// SMART and Sancus baseline tests: access-control automata, guest-visible
// behaviour (attestation tags verified against host crypto), reset/wipe
// semantics, and the restrictions TrustLite lifts.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/isa/assembler.h"
#include "src/sancus/sancus.h"
#include "src/smart/smart.h"

namespace trustlite {
namespace {

std::array<uint8_t, 32> TestKey() {
  std::array<uint8_t, 32> key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xA0 + i);
  }
  return key;
}

// ---------------- SMART ----------------

TEST(SmartTest, RoutineAssemblesWithinRom) {
  SmartConfig config;
  Result<std::vector<uint8_t>> routine = BuildSmartRoutine(config);
  ASSERT_TRUE(routine.ok()) << routine.status().ToString();
  EXPECT_GT(routine->size(), 200u);
  EXPECT_LE(config.rom_base + routine->size(), config.rom_end);
}

TEST(SmartTest, AttestationTagIsGenuineHmac) {
  SmartSystem smart(SmartConfig{}, TestKey());
  // Some "firmware" to attest, in open RAM.
  const uint32_t region_base = 0x0003'1000;
  std::vector<uint8_t> firmware(128);
  for (size_t i = 0; i < firmware.size(); ++i) {
    firmware[i] = static_cast<uint8_t>(i * 3);
  }
  ASSERT_TRUE(smart.platform().bus().HostWriteBytes(region_base, firmware));

  Sha256Digest tag;
  ASSERT_TRUE(smart.InvokeAttestation(0xDEAD0001, region_base,
                                      region_base + 128, &tag));
  EXPECT_EQ(tag, smart.ExpectedTag(0xDEAD0001, firmware));

  // Different nonce -> different tag (freshness).
  Sha256Digest tag2;
  ASSERT_TRUE(smart.InvokeAttestation(0xDEAD0002, region_base,
                                      region_base + 128, &tag2));
  EXPECT_NE(tag, tag2);
  EXPECT_EQ(tag2, smart.ExpectedTag(0xDEAD0002, firmware));
}

TEST(SmartTest, KeyWindowPastTheEndOfPromFailsClosed) {
  SmartConfig config;
  config.key_base = kPromBase + kPromSize - 16;  // Half the key overruns.
  config.key_end = config.key_base + 32;
  SmartSystem smart(config, TestKey());
  EXPECT_EQ(smart.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(SmartSystem(SmartConfig{}, TestKey()).status().ok());
  Sha256Digest tag;
  EXPECT_FALSE(smart.InvokeAttestation(1, 0x0003'1000, 0x0003'1040, &tag));
}

TEST(SmartTest, TamperedFirmwareChangesTag) {
  SmartSystem smart(SmartConfig{}, TestKey());
  const uint32_t region_base = 0x0003'1000;
  std::vector<uint8_t> firmware(64, 0x5A);
  ASSERT_TRUE(smart.platform().bus().HostWriteBytes(region_base, firmware));
  Sha256Digest clean;
  ASSERT_TRUE(
      smart.InvokeAttestation(7, region_base, region_base + 64, &clean));
  ASSERT_TRUE(smart.platform().bus().HostWriteWord(region_base + 16, 0x666));
  Sha256Digest tampered;
  ASSERT_TRUE(
      smart.InvokeAttestation(7, region_base, region_base + 64, &tampered));
  EXPECT_NE(clean, tampered);
}

TEST(SmartTest, DirectKeyReadForcesReset) {
  SmartConfig config;
  SmartSystem smart(config, TestKey());
  // Untrusted code reads the key region directly.
  std::string src = ".org 0x31000\n    li r1, 0x" + [&] {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%x", config.key_base);
    return std::string(buf);
  }() + "\n    ldw r2, [r1]\n    halt\n";
  Result<AsmOutput> out = Assemble(src);
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  ASSERT_TRUE(smart.platform().bus().HostWriteBytes(0x31000,
                                                    out->Flatten(&base)));
  smart.platform().cpu().Reset(0x31000);
  smart.platform().Run(100);
  ASSERT_TRUE(smart.platform().cpu().halted());
  EXPECT_EQ(smart.platform().cpu().trap().exception_class, kExcReset);
  EXPECT_TRUE(smart.unit().violation());
  EXPECT_EQ(smart.unit().violation_addr(), config.key_base);
  // The key value never reached the register.
  EXPECT_EQ(smart.platform().cpu().reg(2), 0u);
}

TEST(SmartTest, MidRoutineJumpForcesReset) {
  SmartConfig config;
  SmartSystem smart(config, TestKey());
  std::string src = ".org 0x31000\n    li r1, 0x" + [&] {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%x", config.rom_base + 0x40);
    return std::string(buf);
  }() + "\n    jr r1\n    halt\n";
  Result<AsmOutput> out = Assemble(src);
  ASSERT_TRUE(out.ok());
  uint32_t base = 0;
  ASSERT_TRUE(smart.platform().bus().HostWriteBytes(0x31000,
                                                    out->Flatten(&base)));
  smart.platform().cpu().Reset(0x31000);
  smart.platform().Run(100);
  ASSERT_TRUE(smart.platform().cpu().halted());
  EXPECT_EQ(smart.platform().cpu().trap().exception_class, kExcReset);
}

TEST(SmartTest, ResetWipesAllVolatileMemory) {
  SmartSystem smart(SmartConfig{}, TestKey());
  ASSERT_TRUE(smart.platform().bus().HostWriteWord(0x00031000, 0x5EC8E7));
  const uint64_t wipe_cycles = smart.ResetAndSanitize();
  EXPECT_EQ(wipe_cycles,
            MemorySanitizeCycles(kSramSize + kDramSize));
  uint32_t word = 1;
  ASSERT_TRUE(smart.platform().bus().HostReadWord(0x00031000, &word));
  EXPECT_EQ(word, 0u);
  EXPECT_FALSE(smart.unit().violation());
}

TEST(SmartTest, SoftwareHashVariantProducesSameHmac) {
  // The original SMART had no crypto accelerator: the ROM routine carries
  // its own SHA-256. Same key, same mailbox protocol, same tag.
  SmartSystem smart(SoftwareSmartConfig(), TestKey());
  const uint32_t region_base = 0x0003'1000;
  std::vector<uint8_t> firmware(256);
  for (size_t i = 0; i < firmware.size(); ++i) {
    firmware[i] = static_cast<uint8_t>(i ^ 0x37);
  }
  ASSERT_TRUE(smart.platform().bus().HostWriteBytes(region_base, firmware));
  Sha256Digest tag;
  uint64_t soft_cycles = 0;
  ASSERT_TRUE(smart.InvokeAttestation(0xAB, region_base, region_base + 256,
                                      &tag, &soft_cycles));
  EXPECT_EQ(tag, smart.ExpectedTag(0xAB, firmware));

  // Key-derived staging bytes were wiped before the routine returned.
  const SmartConfig config = SoftwareSmartConfig();
  std::vector<uint8_t> stage;
  ASSERT_TRUE(smart.platform().bus().HostReadBytes(config.soft_scratch,
                                                   24 * 4, &stage));
  for (const uint8_t byte : stage) {
    ASSERT_EQ(byte, 0);
  }

  // Cost contrast: the engine-backed routine is far cheaper.
  SmartSystem hw(SmartConfig{}, TestKey());
  ASSERT_TRUE(hw.platform().bus().HostWriteBytes(region_base, firmware));
  Sha256Digest hw_tag;
  uint64_t hw_cycles = 0;
  ASSERT_TRUE(hw.InvokeAttestation(0xAB, region_base, region_base + 256,
                                   &hw_tag, &hw_cycles));
  EXPECT_EQ(hw_tag, tag);
  EXPECT_GT(soft_cycles, hw_cycles * 10);
}

TEST(SmartTest, SoftwareVariantKeyStillGated) {
  const SmartConfig config = SoftwareSmartConfig();
  SmartSystem smart(config, TestKey());
  Result<AsmOutput> thief = Assemble(
      ".org 0x31000\n    li r1, " + std::to_string(config.key_base) +
      "\n    ldw r2, [r1]\n    halt\n");
  ASSERT_TRUE(thief.ok());
  uint32_t base = 0;
  ASSERT_TRUE(
      smart.platform().bus().HostWriteBytes(0x31000, thief->Flatten(&base)));
  smart.platform().cpu().Reset(0x31000);
  smart.platform().Run(100);
  EXPECT_EQ(smart.platform().cpu().trap().exception_class, kExcReset);
}

// ---------------- Sancus ----------------

class SancusTest : public ::testing::Test {
 protected:
  SancusTest()
      : platform_([] {
          PlatformConfig pc;
          pc.with_mpu = false;
          return pc;
        }()),
        unit_(8, std::vector<uint8_t>(16, 0x42)) {
    unit_.Install(&platform_.cpu(), &platform_.bus());
  }

  // Assembles at fixed origins and loads.
  void Load(const std::string& source) {
    Result<AsmOutput> out = Assemble(source);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const AsmChunk& chunk : out->chunks) {
      ASSERT_TRUE(platform_.bus().HostWriteBytes(chunk.base, chunk.bytes));
    }
    symbols_ = out->symbols;
  }

  Platform platform_;
  SancusUnit unit_;
  std::map<std::string, uint32_t> symbols_;
};

TEST_F(SancusTest, ProtectCreatesModuleWithDerivedKey) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
.org 0x11000
module_code:
    .word 1, 2, 3, 4
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  EXPECT_EQ(platform_.cpu().reg(0), 1u);  // Module id.
  EXPECT_EQ(unit_.active_modules(), 1);
  const SancusModule* module = unit_.module_by_id(1);
  ASSERT_NE(module, nullptr);
  // Key derives from the text contents under the master key.
  std::vector<uint8_t> text;
  ASSERT_TRUE(platform_.bus().HostReadBytes(0x11000, 0x100, &text));
  EXPECT_EQ(module->key, unit_.DeriveKey(text));
}

TEST_F(SancusTest, ModuleDataIsolatedFromOutside) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    li  r2, 0x12000
    ldw r3, [r2]          ; foreign read of module data -> reset
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  ASSERT_TRUE(platform_.cpu().halted());
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcReset);
  EXPECT_TRUE(unit_.violation());
}

TEST_F(SancusTest, ModuleEntryOnlyAtTextStart) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    li  r2, 0x11008       ; mid-module target
    jr  r2
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
.org 0x11000
module:
    nop
    nop
    halt
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcReset);
}

TEST_F(SancusTest, ModuleCanUseItsDataAndAttest) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    li  r2, 0x11000
    jr  r2                ; enter the module at its start
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100

.org 0x11000
module:
    ; use own data section
    li  r3, 0x12000
    li  r4, 0x600D
    stw r4, [r3]
    ldw r5, [r3]
    ; attest some open memory
    li  r6, 0x12010       ; descriptor inside own data
    li  r7, 0x12040       ; out_ptr
    stw r7, [r6 + 0]
    li  r7, 0x31000       ; target start
    stw r7, [r6 + 4]
    li  r7, 0x31040       ; target end
    stw r7, [r6 + 8]
    li  r7, 0x123
    stw r7, [r6 + 12]     ; nonce
    attest r8, r6
    halt
)");
  // Target bytes.
  std::vector<uint8_t> target(0x40, 0xAB);
  ASSERT_TRUE(platform_.bus().HostWriteBytes(0x31000, target));

  platform_.cpu().Reset(0x30000);
  platform_.Run(1000);
  ASSERT_TRUE(platform_.cpu().halted());
  ASSERT_FALSE(unit_.violation());
  EXPECT_EQ(platform_.cpu().reg(5), 0x600Du);
  EXPECT_EQ(platform_.cpu().reg(8), 1u);  // Attest succeeded.

  // The tag in the module's data matches the host model under the module key.
  const SancusModule* module = unit_.module_by_id(1);
  ASSERT_NE(module, nullptr);
  std::vector<uint8_t> tag_bytes;
  ASSERT_TRUE(platform_.bus().HostReadBytes(0x12040, kSpongentDigestSize,
                                            &tag_bytes));
  const SpongentDigest expected = unit_.ExpectedTag(module->key, 0x123, target);
  EXPECT_TRUE(std::equal(tag_bytes.begin(), tag_bytes.end(), expected.begin()));
}

TEST_F(SancusTest, AttestOutsideModuleFails) {
  Load(R"(
.org 0x30000
start:
    li  r6, 0x31000
    attest r8, r6
    halt
)");
  platform_.cpu().Reset(0x30000);
  platform_.cpu().set_reg(8, 77);
  platform_.Run(100);
  EXPECT_EQ(platform_.cpu().reg(8), 0u);
  EXPECT_FALSE(platform_.cpu().trap().valid);
}

TEST_F(SancusTest, InterruptInsideModuleForcesReset) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    ; arm the timer, then enter the module
    li  r2, 0xF0002000
    movi r3, 50
    stw r3, [r2 + 4]
    la  r3, isr
    stw r3, [r2 + 12]
    movi r3, 3
    stw r3, [r2 + 0]
    sti
    li  r2, 0x11000
    jr  r2
isr:
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
.org 0x11000
module:
spin:
    jmp spin
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(10000);
  ASSERT_TRUE(platform_.cpu().halted());
  // Sancus cannot interrupt a module: the platform resets instead of
  // invoking the ISR (TrustLite's secure exceptions remove this limitation).
  EXPECT_EQ(platform_.cpu().trap().exception_class, kExcReset);
}

TEST_F(SancusTest, UnprotectTearsDownModule) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    li  r2, 0x11000
    jr  r2
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
.org 0x11000
module:
    unprotect
    halt
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  ASSERT_TRUE(platform_.cpu().halted());
  EXPECT_FALSE(platform_.cpu().trap().valid);
  EXPECT_EQ(unit_.active_modules(), 0);
}

TEST_F(SancusTest, ProtectStopsAForeignFetchOfALoneInstruction) {
  // The fast run loop pins a lone instruction's fetch (a tombstone's) to
  // its predecessor only under the EA-MPU or with no protection unit:
  // `protect` changes a fetch decision without moving any generation a pin
  // keys on. Before the module exists, `call` fetches its mid-text `jr lr`
  // twice; once the module is protected, the same fetch from the same
  // predecessor must reset the platform, as on the fast_path=false
  // reference.
  const std::string source = R"(
.org 0x30000
start:
    li   r2, 0x11008
    movi r9, 0
call:
    jalr r2               ; the mid-text jr's one predecessor
    addi r9, r9, 1
    movi r10, 2
    bltu r9, r10, call
    la   r1, descriptor
    protect r1
    jmp  call
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
.org 0x11000
module:
    nop
    nop
    jr   lr
)";
  struct Outcome {
    TrapInfo trap;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    bool violation = false;
    uint32_t violation_addr = 0;
  };
  const auto run = [&](Platform& platform, const SancusUnit& unit) {
    Result<AsmOutput> out = Assemble(source);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    for (const AsmChunk& chunk : out->chunks) {
      EXPECT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
    }
    platform.cpu().Reset(0x30000);
    platform.Run(1000);
    EXPECT_TRUE(platform.cpu().halted());
    return Outcome{platform.cpu().trap(), platform.cpu().cycles(),
                   platform.cpu().stats().instructions, unit.violation(),
                   unit.violation_addr()};
  };
  PlatformConfig reference_config;
  reference_config.with_mpu = false;
  reference_config.fast_path = false;
  Platform reference(reference_config);
  SancusUnit reference_unit(8, std::vector<uint8_t>(16, 0x42));
  reference_unit.Install(&reference.cpu(), &reference.bus());

  const Outcome fast = run(platform_, unit_);
  const Outcome ref = run(reference, reference_unit);
  EXPECT_TRUE(ref.violation);
  EXPECT_EQ(ref.trap.exception_class, kExcReset);
  EXPECT_EQ(ref.violation_addr, 0x11008u);
  EXPECT_EQ(fast.trap.valid, ref.trap.valid);
  EXPECT_EQ(fast.trap.exception_class, ref.trap.exception_class);
  EXPECT_EQ(fast.trap.ip, ref.trap.ip);
  EXPECT_EQ(fast.trap.addr, ref.trap.addr);
  EXPECT_EQ(fast.cycles, ref.cycles);
  EXPECT_EQ(fast.instructions, ref.instructions);
  EXPECT_EQ(fast.violation, ref.violation);
  EXPECT_EQ(fast.violation_addr, ref.violation_addr);
}

TEST_F(SancusTest, OverlappingProtectRejected) {
  Load(R"(
.org 0x30000
start:
    la  r1, d1
    protect r1
    mov r9, r0
    la  r1, d2
    protect r1
    halt
d1: .word 0x11000, 0x11100, 0x12000, 0x12100
d2: .word 0x11080, 0x11200, 0x13000, 0x13100
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  EXPECT_EQ(platform_.cpu().reg(9), 1u);  // First succeeded.
  EXPECT_EQ(platform_.cpu().reg(0), 0u);  // Overlap rejected.
  EXPECT_EQ(unit_.active_modules(), 1);
}

TEST_F(SancusTest, ModuleSlotsExhaust) {
  // 8 slots; the 9th protect fails — the production-time limit that
  // Figure 7 prices.
  std::string src = ".org 0x30000\nstart:\n";
  for (int i = 0; i < 9; ++i) {
    src += "    la r1, d" + std::to_string(i) + "\n    protect r1\n";
    src += "    mov r" + std::to_string(2 + i % 10) + ", r0\n";
  }
  src += "    halt\n";
  for (int i = 0; i < 9; ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "d%d: .word 0x%x, 0x%x, 0x%x, 0x%x\n", i,
                  0x11000 + i * 0x400, 0x11100 + i * 0x400,
                  0x18000 + i * 0x400, 0x18100 + i * 0x400);
    src += buf;
  }
  Load(src);
  platform_.cpu().Reset(0x30000);
  platform_.Run(1000);
  EXPECT_EQ(unit_.active_modules(), 8);
  EXPECT_EQ(platform_.cpu().reg(0), 0u);  // Last protect failed.
}

TEST_F(SancusTest, SingleContiguousDataSectionCannotSpanDisjointMmio) {
  // Paper Sec. 3.3: "the Sancus task model requires that all memory and
  // MMIO accessible for a trustlet are wired into the same contiguous data
  // region, which is unusual". A module whose data section covers its RAM
  // cannot also reach a disjoint MMIO block: the access resets the
  // platform. (TrustLite expresses this with a second grant region — see
  // IntegrationTest.SecurePeripheralExclusiveToTrustlet and the watchdog.)
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    li  r2, 0x11000
    jr  r2
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100

.org 0x11000
module:
    ; own data: fine
    li  r3, 0x12000
    movi r4, 1
    stw r4, [r3]
    ; disjoint MMIO (GPIO): outside the single data section -> allowed only
    ; because it is outside EVERY module section (open); but granting it
    ; *exclusively* is impossible — any other code may use it too.
    li  r3, 0xF0006000
    stw r4, [r3]
    halt
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(1000);
  ASSERT_TRUE(platform_.cpu().halted());
  EXPECT_FALSE(unit_.violation());
  // The GPIO write went through — and so would anyone else's: Sancus cannot
  // give the module exclusivity over a disjoint MMIO range.
  AccessContext outsider;
  outsider.curr_ip = 0x30000;
  outsider.kind = AccessKind::kWrite;
  EXPECT_EQ(unit_.Check(outsider, 0xF0006000, 4), AccessResult::kOk);
  // Folding the MMIO into the module data section would require the data
  // descriptor to span 0x12000..0xF0007000 — covering (and confiscating)
  // all of DRAM and every other peripheral: the unusual wiring the paper
  // criticizes. Protect rejects it here because it overlaps module text.
  Load(R"(
.org 0x32000
start2:
    la  r1, big_descriptor
    protect r1
    halt
big_descriptor:
    .word 0x13000, 0x13100, 0x12000, 0xF0007000
)");
  platform_.cpu().Reset(0x32000);
  platform_.Run(1000);
  EXPECT_EQ(platform_.cpu().reg(0), 0u);  // Overlap -> rejected.
}

TEST_F(SancusTest, ResetDestroysModulesAndKeys) {
  Load(R"(
.org 0x30000
start:
    la  r1, descriptor
    protect r1
    halt
descriptor:
    .word 0x11000, 0x11100, 0x12000, 0x12100
)");
  platform_.cpu().Reset(0x30000);
  platform_.Run(100);
  ASSERT_EQ(unit_.active_modules(), 1);
  platform_.HardReset();  // Bus reset also resets the protection unit.
  EXPECT_EQ(unit_.active_modules(), 0);
}

}  // namespace
}  // namespace trustlite
