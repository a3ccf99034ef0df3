// Copyright 2026 The TrustLite Reproduction Authors.
// Remote attestation over the UART: a host-side verifier exchanges binary
// frames with the attestation trustlet over the serial line — the complete
// remote-party flow of paper Secs. 1/2.3 ("remote reporting of the
// software"), with the UART owned exclusively by the trustlet (trusted
// path end to end).

#include <gtest/gtest.h>

#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/services/attestation.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

TrustletBuildSpec FirmwareSpec() {
  TrustletBuildSpec spec;
  spec.name = "FW";
  spec.code_addr = 0x11000;
  spec.data_addr = 0x12000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = "tl_main:\n    swi 0\n    jmp tl_main\n";
  return spec;
}

class RemoteAttestationTest : public ::testing::Test {
 protected:
  void Boot() {
    SystemImage image;
    firmware_ = *BuildTrustlet(FirmwareSpec());
    image.Add(firmware_);

    attn_.code_addr = 0x15000;
    attn_.data_addr = 0x16000;
    for (size_t i = 0; i < attn_.key.size(); ++i) {
      attn_.key[i] = static_cast<uint8_t>(0x30 + i);
    }
    Result<TrustletMeta> attn_meta = BuildUartAttestationTrustlet(attn_);
    ASSERT_TRUE(attn_meta.ok()) << attn_meta.status().ToString();
    image.Add(*attn_meta);

    NanosConfig os_config;
    os_config.grant_uart = false;  // The UART belongs to the attestor.
    os_config.timer_period = 2000;
    image.Add(*BuildNanos(os_config));
    ASSERT_TRUE(platform_.InstallImage(image).ok());
    Result<LoadReport> report = platform_.BootAndLaunch();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  // One verifier round trip over the serial line.
  bool Challenge(uint32_t target, uint32_t challenge, uint32_t* status,
                 Sha256Digest* report) {
    const size_t response_offset = platform_.uart().output().size();
    platform_.uart().PushInput(EncodeAttestationRequest(target, challenge));
    for (int spins = 0; spins < 50; ++spins) {
      platform_.Run(50000);
      size_t frame_start = 0;
      size_t next_offset = 0;
      if (ScanAttestationResponse(platform_.uart().output(), response_offset,
                                  &frame_start, &next_offset, status,
                                  report) == FrameScan::kFrame) {
        return true;
      }
      if (platform_.cpu().halted()) {
        return false;
      }
    }
    return false;
  }

  Platform platform_;
  TrustletMeta firmware_;
  AttestationSpec attn_;
};

TEST_F(RemoteAttestationTest, VerifierRoundTrip) {
  Boot();
  uint32_t status = 0;
  Sha256Digest report;
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 0x600D600D, &status, &report));
  EXPECT_EQ(status, kAttestStatusOk);

  std::vector<uint8_t> live_code;
  ASSERT_TRUE(platform_.bus().HostReadBytes(
      firmware_.code_addr, static_cast<uint32_t>(firmware_.code.size()),
      &live_code));
  EXPECT_EQ(report,
            ExpectedAttestationReport(attn_.key, 0x600D600D, live_code));
}

TEST_F(RemoteAttestationTest, FreshChallengesFreshReports) {
  Boot();
  uint32_t status = 0;
  Sha256Digest r1;
  Sha256Digest r2;
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 1, &status, &r1));
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 2, &status, &r2));
  EXPECT_NE(r1, r2);
}

TEST_F(RemoteAttestationTest, TamperDetectedRemotely) {
  Boot();
  uint32_t status = 0;
  Sha256Digest clean;
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 42, &status, &clean));
  // Fault-inject the firmware (host-level). Target the final code word
  // (the default call handler), which this workload never executes — the
  // system keeps running, but the measurement must still change.
  const uint32_t victim_word =
      firmware_.code_addr + static_cast<uint32_t>(firmware_.code.size()) - 4;
  uint32_t word = 0;
  ASSERT_TRUE(platform_.bus().HostReadWord(victim_word, &word));
  ASSERT_TRUE(platform_.bus().HostWriteWord(victim_word, word ^ 0x2));
  Sha256Digest tampered;
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 42, &status, &tampered));
  EXPECT_EQ(status, kAttestStatusOk);
  EXPECT_NE(clean, tampered);
}

TEST_F(RemoteAttestationTest, UnknownTargetReported) {
  Boot();
  uint32_t status = 0;
  Sha256Digest report;
  ASSERT_TRUE(Challenge(MakeTrustletId("ZZ"), 7, &status, &report));
  EXPECT_EQ(status, kAttestStatusUnknownTarget);
}

TEST_F(RemoteAttestationTest, GarbageBytesResynchronized) {
  Boot();
  // Noise on the line before a valid frame.
  platform_.uart().PushInput("\x00\xFFnoise");
  platform_.Run(100000);
  uint32_t status = 0;
  Sha256Digest report;
  ASSERT_TRUE(Challenge(MakeTrustletId("FW"), 9, &status, &report));
  EXPECT_EQ(status, kAttestStatusOk);
}

}  // namespace
}  // namespace trustlite
