// Copyright 2026 The TrustLite Reproduction Authors.
// Secure Loader tests (Sec. 3.5 / Fig. 5): record discovery, code placement,
// SP-slot patching, initial-frame fabrication, measurement, Trustlet Table
// population, MPU programming/locking, write-cost accounting, secure boot,
// and region exhaustion.

#include "src/loader/secure_loader.h"

#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/trustlet/builder.h"
#include "src/trustlet/frame.h"
#include "src/trustlet/trustlet_table.h"

namespace trustlite {
namespace {

TrustletBuildSpec BasicSpec(const std::string& name, uint32_t code,
                            uint32_t data) {
  TrustletBuildSpec spec;
  spec.name = name;
  spec.code_addr = code;
  spec.data_addr = data;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = R"(
tl_main:
    movi r1, 1
spin:
    swi 0
    jmp spin
)";
  return spec;
}

class LoaderTest : public ::testing::Test {
 protected:
  void BuildImageWithTrustletAndOs() {
    Result<TrustletMeta> tl = BuildTrustlet(BasicSpec("TLA", 0x11000, 0x12000));
    ASSERT_TRUE(tl.ok()) << tl.status().ToString();
    image_.Add(*tl);
    NanosConfig os_config;
    Result<TrustletMeta> os = BuildNanos(os_config);
    ASSERT_TRUE(os.ok()) << os.status().ToString();
    image_.Add(*os);
    ASSERT_TRUE(platform_.InstallImage(image_).ok());
  }

  Platform platform_;
  SystemImage image_;
};

TEST_F(LoaderTest, BootLoadsTrustletsAndPopulatesTable) {
  BuildImageWithTrustletAndOs();
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->trustlets.size(), 2u);
  EXPECT_EQ(report->os_id, MakeTrustletId("OS"));
  EXPECT_NE(report->os_entry, 0u);
  EXPECT_NE(report->os_sp, 0u);

  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  EXPECT_EQ(table.ReadRowCount(), 2u);
  const std::optional<int> tl_row = table.FindById(MakeTrustletId("TLA"));
  ASSERT_TRUE(tl_row.has_value());
  const std::optional<TrustletTableRow> row = table.ReadRow(*tl_row);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->code_base, 0x11000u);
  EXPECT_EQ(row->entry, 0x11000u);
  EXPECT_EQ(row->data_end, 0x12400u);
  // Initial saved SP points at a fabricated frame below the stack top.
  EXPECT_EQ(row->saved_sp, 0x12400u - kFrameSize);

  // The fabricated frame resumes at tl_main with interrupts enabled.
  const LoadedTrustlet* loaded = report->FindById(MakeTrustletId("TLA"));
  ASSERT_NE(loaded, nullptr);
  uint32_t frame_ip = 0;
  uint32_t frame_flags = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(row->saved_sp + kFrameOffsetIp,
                                           &frame_ip));
  ASSERT_TRUE(platform_.bus().HostReadWord(row->saved_sp + kFrameOffsetFlags,
                                           &frame_flags));
  EXPECT_EQ(frame_ip, loaded->meta.code_addr + loaded->meta.start_offset);
  EXPECT_EQ(frame_flags, kInitialTrustletFlags);
}

TEST_F(LoaderTest, SpSlotPatchedIntoCode) {
  BuildImageWithTrustletAndOs();
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok());
  const LoadedTrustlet* loaded = report->FindById(MakeTrustletId("TLA"));
  ASSERT_NE(loaded, nullptr);
  uint32_t patched = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(
      loaded->meta.code_addr + loaded->meta.sp_slot_patch_offset, &patched));
  EXPECT_EQ(patched, loaded->sp_slot_addr);
  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  EXPECT_EQ(patched, table.SavedSpAddress(loaded->tt_index));
}

TEST_F(LoaderTest, MeasurementMatchesPlacedCode) {
  BuildImageWithTrustletAndOs();
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok());
  const LoadedTrustlet* loaded = report->FindById(MakeTrustletId("TLA"));
  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  const std::optional<TrustletTableRow> row = table.ReadRow(loaded->tt_index);
  ASSERT_TRUE(row.has_value());
  // Measurement equals SHA-256 of the code as placed in RAM (which includes
  // the patched SP-slot word, *not* the PROM original).
  std::vector<uint8_t> placed;
  ASSERT_TRUE(platform_.bus().HostReadBytes(
      loaded->meta.code_addr, static_cast<uint32_t>(loaded->meta.code.size()),
      &placed));
  EXPECT_EQ(row->measurement, Sha256Hash(placed));
  // And differs from the unpatched PROM code (the slot pointer changed).
  EXPECT_NE(row->measurement, Sha256Hash(loaded->meta.code));
}

TEST_F(LoaderTest, MpuArmedAndLocked) {
  BuildImageWithTrustletAndOs();
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(platform_.mpu()->enabled());
  EXPECT_TRUE(platform_.mpu()->locked());
  // Guest writes to MPU regions are now ineffective.
  AccessContext ctx;
  ctx.curr_ip = report->os_entry;
  ctx.kind = AccessKind::kWrite;
  const uint32_t region0 = kMpuMmioBase + kMpuRegionBank;
  uint32_t before = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(region0, &before));
  platform_.bus().Write(ctx, region0, 4, 0xDEAD);
  uint32_t after = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(region0, &after));
  EXPECT_EQ(before, after);
}

TEST_F(LoaderTest, RegionAndRuleCostAccounting) {
  BuildImageWithTrustletAndOs();
  LoaderConfig config;
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_TRUE(report.ok());
  // Regions: TLA code+data, OS code+data, 2 OS peripheral grants
  // (timer, uart), Trustlet Table, MPU MMIO, SysCtl = 9.
  EXPECT_EQ(report->regions_used, 9);
  EXPECT_GT(report->rules_used, 8);
  // MPU write cost: CTRL clear + 3 per region + 1 SP slot per *code* region
  // (2 code regions) + 1 per rule + CTRL arm.
  const uint64_t expected =
      1 + 3ull * static_cast<uint64_t>(report->regions_used) + 2 +
      static_cast<uint64_t>(report->rules_used) + 1;
  EXPECT_EQ(report->mpu_register_writes, expected);
  EXPECT_GT(report->boot_cycles, 0u);
  EXPECT_GT(report->words_moved, 0u);
}

TEST_F(LoaderTest, WithoutSecureExceptionsNoSpSlotWrites) {
  BuildImageWithTrustletAndOs();
  LoaderConfig config;
  config.secure_exceptions = false;
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_TRUE(report.ok());
  const uint64_t expected =
      1 + 3ull * static_cast<uint64_t>(report->regions_used) +
      static_cast<uint64_t>(report->rules_used) + 1;
  EXPECT_EQ(report->mpu_register_writes, expected);
}

TEST_F(LoaderTest, UnprotectedProgramLoadedWithoutRegions) {
  Result<AsmOutput> app = Assemble("app:\n  jmp app\n", 0x00100000);
  ASSERT_TRUE(app.ok());
  uint32_t base = 0;
  image_.AddProgram(0x00100000, app->Flatten(&base));
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok());
  image_.Add(*os);
  ASSERT_TRUE(platform_.InstallImage(image_).ok());
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // App code was copied into DRAM.
  uint32_t word = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(0x00100000, &word));
  EXPECT_NE(word, 0u);
  // Only the OS occupies the table.
  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  EXPECT_EQ(table.ReadRowCount(), 1u);
}

TEST_F(LoaderTest, SharedGrantRegionsDeduplicated) {
  // Two trustlets requesting the same shared window use one region.
  TrustletBuildSpec a = BasicSpec("A", 0x11000, 0x12000);
  TrustletBuildSpec b = BasicSpec("B", 0x13000, 0x14000);
  const RegionGrant shared{0x15000, 0x15100, kGrantRead | kGrantWrite};
  a.grants.push_back(shared);
  b.grants.push_back(shared);
  Result<TrustletMeta> ta = BuildTrustlet(a);
  Result<TrustletMeta> tb = BuildTrustlet(b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  image_.Add(*ta);
  image_.Add(*tb);
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok());
  image_.Add(*os);
  ASSERT_TRUE(platform_.InstallImage(image_).ok());
  Result<LoadReport> report = platform_.Boot();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Regions: 3x(code+data) + 1 shared + 2 OS grants + TT + MPU + SysCtl = 12.
  EXPECT_EQ(report->regions_used, 12);
}

TEST_F(LoaderTest, RegionExhaustionReported) {
  PlatformConfig config;
  config.mpu_regions = 4;  // Too few for trustlet + OS + platform regions.
  Platform small(config);
  SystemImage image;
  Result<TrustletMeta> tl = BuildTrustlet(BasicSpec("TLA", 0x11000, 0x12000));
  ASSERT_TRUE(tl.ok());
  image.Add(*tl);
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok());
  image.Add(*os);
  ASSERT_TRUE(small.InstallImage(image).ok());
  Result<LoadReport> report = small.Boot();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(LoaderTest, SecureBootAcceptsSignedRejectsTampered) {
  const std::vector<uint8_t> device_key(32, 0x42);
  TrustletBuildSpec spec = BasicSpec("SGN", 0x11000, 0x12000);
  spec.is_signed = true;
  Result<TrustletMeta> tl = BuildTrustlet(spec);
  ASSERT_TRUE(tl.ok());
  image_.Add(*tl);
  image_.SignAll(device_key);
  ASSERT_TRUE(platform_.InstallImage(image_).ok());

  LoaderConfig config;
  config.secure_boot = true;
  config.require_signatures = true;
  config.device_key = device_key;
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Tamper with one code byte in PROM: boot must fail.
  Platform tampered;
  SystemImage bad_image;
  Result<TrustletMeta> tl2 = BuildTrustlet(spec);
  ASSERT_TRUE(tl2.ok());
  bad_image.Add(*tl2);
  bad_image.SignAll(device_key);
  bad_image.mutable_records()[0].code[8] ^= 1;
  ASSERT_TRUE(tampered.InstallImage(bad_image).ok());
  Result<LoadReport> bad = tampered.Boot(config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(LoaderTest, SecureBootRejectsUnsignedWhenRequired) {
  BuildImageWithTrustletAndOs();  // Unsigned records.
  LoaderConfig config;
  config.secure_boot = true;
  config.require_signatures = true;
  config.device_key = std::vector<uint8_t>(32, 0x42);
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(LoaderTest, RebootReestablishesProtection) {
  BuildImageWithTrustletAndOs();
  Result<LoadReport> first = platform_.Boot();
  ASSERT_TRUE(first.ok());
  // Plant a secret in the trustlet's data region, then reset the platform.
  const LoadedTrustlet* loaded = first->FindById(MakeTrustletId("TLA"));
  ASSERT_TRUE(platform_.bus().HostWriteWord(loaded->meta.data_addr + 0x80,
                                            0x5EC8E7));
  platform_.HardReset();
  EXPECT_FALSE(platform_.mpu()->enabled());  // Hardware reset cleared it.
  Result<LoadReport> second = platform_.Boot();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(platform_.mpu()->enabled());
  EXPECT_TRUE(platform_.mpu()->locked());
  // The loader cleared the re-allocated data region: the secret is gone
  // without any hardware memory wipe (fast startup, Sec. 6).
  uint32_t word = 0xFFFFFFFF;
  ASSERT_TRUE(
      platform_.bus().HostReadWord(loaded->meta.data_addr + 0x80, &word));
  EXPECT_EQ(word, 0u);
}

TEST_F(LoaderTest, DeploymentProfilesSelectTrustletSets) {
  // Paper Sec. 8: one PROM image, several deployment scenarios; the Secure
  // Loader establishes only the selected profile's software stack.
  TrustletBuildSpec payment = BasicSpec("PAY", 0x11000, 0x12000);
  TrustletBuildSpec diag = BasicSpec("DIAG", 0x13000, 0x14000);
  Result<TrustletMeta> pay_meta = BuildTrustlet(payment);
  Result<TrustletMeta> diag_meta = BuildTrustlet(diag);
  ASSERT_TRUE(pay_meta.ok());
  ASSERT_TRUE(diag_meta.ok());
  pay_meta->profile = 1;   // Field profile.
  diag_meta->profile = 2;  // Factory-diagnostics profile.
  image_.Add(*pay_meta);
  image_.Add(*diag_meta);
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);  // profile 0: always.
  ASSERT_TRUE(os.ok());
  image_.Add(*os);
  ASSERT_TRUE(platform_.InstallImage(image_).ok());

  LoaderConfig field;
  field.profile = 1;
  Result<LoadReport> report = platform_.Boot(field);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->FindById(MakeTrustletId("PAY")), nullptr);
  EXPECT_EQ(report->FindById(MakeTrustletId("DIAG")), nullptr);
  EXPECT_EQ(report->records_skipped, 1);
  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  EXPECT_EQ(table.ReadRowCount(), 2u);  // PAY + OS.

  // Second boot phase into the diagnostics scenario: reset + reload.
  platform_.HardReset();
  LoaderConfig diag_config;
  diag_config.profile = 2;
  Result<LoadReport> report2 = platform_.Boot(diag_config);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->FindById(MakeTrustletId("PAY")), nullptr);
  EXPECT_NE(report2->FindById(MakeTrustletId("DIAG")), nullptr);
  EXPECT_EQ(report2->records_skipped, 1);
}

TEST_F(LoaderTest, MeasureAllOverridesPerTrustletChoice) {
  TrustletBuildSpec spec = BasicSpec("TLA", 0x11000, 0x12000);
  spec.measure = false;
  Result<TrustletMeta> tl = BuildTrustlet(spec);
  ASSERT_TRUE(tl.ok());
  image_.Add(*tl);
  NanosConfig os_config;
  image_.Add(*BuildNanos(os_config));
  ASSERT_TRUE(platform_.InstallImage(image_).ok());

  LoaderConfig no_measure;
  Result<LoadReport> report = platform_.Boot(no_measure);
  ASSERT_TRUE(report.ok());
  TrustletTableView table(&platform_.bus(), kTrustletTableBase);
  Sha256Digest zero{};
  EXPECT_EQ(table.ReadRow(*table.FindById(MakeTrustletId("TLA")))->measurement,
            zero);

  platform_.HardReset();
  LoaderConfig measure_all;
  measure_all.measure_all = true;
  Result<LoadReport> report2 = platform_.Boot(measure_all);
  ASSERT_TRUE(report2.ok());
  EXPECT_NE(table.ReadRow(*table.FindById(MakeTrustletId("TLA")))->measurement,
            zero);
}

TEST_F(LoaderTest, UnlockedInstantiationStaysReprogrammable) {
  // Sec. 3.5 note: locking is a policy choice; an unlocked instantiation
  // (e.g. for a software-update service) keeps the register file writable.
  BuildImageWithTrustletAndOs();
  LoaderConfig config;
  config.lock_mpu = false;
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(platform_.mpu()->enabled());
  EXPECT_FALSE(platform_.mpu()->locked());
  // Host-level write to a free region register succeeds (no CTRL.lock) —
  // though guest writes would still be subject to the OS->MPU rule matrix.
  const uint32_t free_region =
      kMpuMmioBase + kMpuRegionBank +
      static_cast<uint32_t>(report->regions_used) * kMpuRegionStride;
  ASSERT_TRUE(platform_.bus().HostWriteWord(free_region, 0x4242));
  uint32_t value = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(free_region, &value));
  EXPECT_EQ(value, 0x4242u);
}

TEST_F(LoaderTest, DisabledMpuInstantiation) {
  // enable_mpu = false: everything loads, nothing is enforced (a pure
  // bring-up/debug configuration).
  BuildImageWithTrustletAndOs();
  LoaderConfig config;
  config.enable_mpu = false;
  config.lock_mpu = false;
  Result<LoadReport> report = platform_.Boot(config);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(platform_.mpu()->enabled());
  AccessContext ctx;
  ctx.curr_ip = 0x30000;
  ctx.kind = AccessKind::kWrite;
  EXPECT_EQ(platform_.mpu()->Check(ctx, 0x12010, 4), AccessResult::kOk);
}

TEST_F(LoaderTest, CorruptRecordRejected) {
  BuildImageWithTrustletAndOs();
  // Corrupt the record-size field of the first record in PROM.
  platform_.prom().LoadBytes(
      kPromDirectoryBase + 4 - kPromBase,
      std::vector<uint8_t>{0x02, 0x00, 0x00, 0x00});  // size = 2 (invalid)
  Result<LoadReport> report = platform_.Boot();
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace trustlite
