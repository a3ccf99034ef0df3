// Copyright 2026 The TrustLite Reproduction Authors.
//
// Pinned wire transcripts. The fleet determinism gates compare two runs of
// one build (--threads 1 against 8), so a changed resync or fail-closed
// rule in a frame scanner passes them all. These tests pin absolute
// SHA-256 values of the transcripts and fleet digests of three small
// hostile runs that exercise every link frame family and its resync path:
// an attestation round, an update campaign and a fleetd session. Each run
// first asserts that its attack actually fired. Update a value only for an
// intended change to the wire format or to guest-visible behaviour, in the
// PinnedDigestTest idiom (tests/snapshot_test.cc); each fleet digest is also
// pinned through the snapshot-version-1 stream (tests/legacy_state_digest.h).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"
#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/harness/fleet_campaign.h"
#include "src/update/fw_container.h"
#include "tests/legacy_state_digest.h"

namespace trustlite {
namespace {

std::string HashHex(const std::string& text) {
  const Sha256Digest digest = Sha256Hash(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());
  return HexEncode(digest.data(), digest.size());
}

std::string DigestHex(const Sha256Digest& digest) {
  return HexEncode(digest.data(), digest.size());
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(PinnedTranscriptTest, TamperedAttestationRoundUnderAllHostileModes) {
  FleetConfig config;
  config.nodes = 4;
  config.seed = 7;
  config.link.latency_cycles = 1'000;
  config.link = ApplyHostileMode(config.link, HostileMode::kAll, 500'000);
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.tamper_count = 1;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetAttestor attestor(&fleet, std::move(*provisions), AttestPolicy{});
  attestor.Begin();
  for (int q = 0; q < 4'000 && !attestor.Done(); ++q) {
    fleet.RunQuantum();
    attestor.OnQuantumBoundary();
  }
  ASSERT_TRUE(attestor.Done());
  EXPECT_EQ(attestor.Verified().size(), 3u);
  EXPECT_EQ(attestor.Quarantined().size(), 1u);
  const LinkFabric::Stats stats = fleet.fabric().stats();
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_GT(stats.reflected, 0u);
  uint64_t noise = 0;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    noise += attestor.noise_bytes(i);
  }
  EXPECT_GT(noise, 0u) << "the scanner never resynced";

  EXPECT_EQ(HashHex(attestor.transcript()),
            "c1d1ffb570f49bf8a5c309f80eced6fb84a0950d437e5a650a5adc108133e4be");
  EXPECT_EQ(DigestHex(LegacyFleetDigest(fleet)),
            "c568058fe2223a950786d720edafc1dd576d9f79fcaad4a258312845d8e65c32");
  EXPECT_EQ(DigestHex(fleet.FleetDigest()),
            "9a422737c3ad408f3ba31512d7285b44950532daea431fb39c4c50f5e0e35c1e");
}

TEST(PinnedTranscriptTest, UpdateCampaignUnderCorruption) {
  FleetConfig config;
  config.nodes = 6;
  config.seed = 7;
  config.link.latency_cycles = 1'000;
  config.link =
      ApplyHostileMode(config.link, HostileMode::kCorrupt, 200'000);
  Fleet fleet(config);
  FirmwareContainerSpec spec;
  spec.fw_version = 2;
  spec.name = "pin-v2";
  spec.payload.resize(1'200);
  for (size_t i = 0; i < spec.payload.size(); ++i) {
    spec.payload[i] = static_cast<uint8_t>(0x30 + 7 * i);
  }
  Result<std::vector<uint8_t>> container = PackFirmware(spec);
  ASSERT_TRUE(container.ok()) << container.status().ToString();
  FleetProvisionConfig prov;
  prov.payload_capacity = 1'200;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetAttestor attestor(&fleet, std::move(*provisions), AttestPolicy{});
  attestor.Begin();
  for (int q = 0; q < 4'000 && !attestor.Done(); ++q) {
    fleet.RunQuantum();
    attestor.OnQuantumBoundary();
  }
  ASSERT_TRUE(attestor.Done());
  ASSERT_EQ(attestor.Verified().size(), 6u);

  UpdateCampaignConfig ucfg;
  ucfg.canary_pct = 34;
  ucfg.chunk_bytes = 256;
  ucfg.chunk_timeout_cycles = 100'000;
  UpdateCampaign campaign(&fleet, &attestor, *container, ucfg);
  ASSERT_TRUE(campaign.Start().ok());
  for (int q = 0; q < 4'000 && !campaign.Done(); ++q) {
    fleet.RunQuantum();
    campaign.OnQuantumBoundary();
  }
  ASSERT_TRUE(campaign.Succeeded()) << campaign.transcript();
  EXPECT_EQ(campaign.CountInState(UpdateNodeState::kCommitted), 6);
  EXPECT_GT(fleet.fabric().stats().corrupted, 0u);

  EXPECT_EQ(HashHex(attestor.transcript() + campaign.transcript()),
            "80a1865910be1bdaf208a7d3c1eabce09e6d494af3e6e08f004bef5a09d5efb1");
  EXPECT_EQ(DigestHex(LegacyFleetDigest(fleet)),
            "370d993391766f21b7f5193d903a3b2c3566face016b12fd3c48bf8001c34d73");
  EXPECT_EQ(DigestHex(fleet.FleetDigest()),
            "eaa9ae4415c670d37780a3e5182c872961693ef487d10007a6b425a30521bc1f");
}

TEST(PinnedTranscriptTest, FleetdSessionUnderAllHostileModes) {
  // The library form of
  //   tlfleetd run --nodes 8 --seed 11 --epochs 2 --hostile all
  //                --config mode=eco --scale-up 2
  // whose --transcript file is the attestor transcript, a separator line
  // and the controller transcript.
  FleetConfig config;
  config.nodes = 8;
  config.seed = 11;
  config.link.latency_cycles = 1'000;
  config.link = ApplyHostileMode(config.link, HostileMode::kAll, 150'000);
  Fleet fleet(config);
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, FleetProvisionConfig{});
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(controller.RunReattestEpoch().ok());
  }
  ASSERT_TRUE(controller.PushConfig({{"mode", "eco"}}).ok());
  ASSERT_TRUE(controller.ScaleUp(2).ok());
  controller.Drain();
  EXPECT_EQ(controller.Admitted().size(), 10u);

  const std::string transcript = controller.attestor().transcript() +
                                 "--- fleetd ---\n" + controller.transcript();
  const LinkFabric::Stats stats = fleet.fabric().stats();
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_GT(stats.reflected, 0u);
  EXPECT_GT(Occurrences(transcript, "config-resend"), 0u);
  EXPECT_GT(Occurrences(transcript, "report-mismatch") +
                Occurrences(transcript, "stale-report") +
                Occurrences(transcript, "timeout attempt"),
            0u);
  std::string status;
  for (const std::string& epoch : controller.status_epochs()) {
    status += epoch;
    status += '\n';
  }

  EXPECT_EQ(HashHex(transcript),
            "e04698ebd5c2cb2af6369041dd704fad109f9a18e5277fcc62f3625d1131b462");
  EXPECT_EQ(HashHex(status),
            "c8dba1d15779cf2ad0690d1df2d1500454f9745777e445deb7de31b04e4a9e7f");
  EXPECT_EQ(DigestHex(LegacyFleetDigest(fleet)),
            "0fb2cd90bbc655985759dcb0c2809ba8f852fcd0f1dbc54991daee4fce4592ef");
  EXPECT_EQ(DigestHex(fleet.FleetDigest()),
            "7440b889453fac658413bd1f5099df049b7d322744cc5940a7071374a0473db5");
}

}  // namespace
}  // namespace trustlite
