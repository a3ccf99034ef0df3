// Copyright 2026 The TrustLite Reproduction Authors.
// Staged fleet firmware rollout tests (DESIGN.md §16): clean canary-first
// campaigns ending in fleet-wide commit and re-attestation against the new
// golden measurement, bit-identical transcripts across host thread counts,
// halt-on-quarantine abort + rollback under a mid-campaign tamper, the
// fleet-wide anti-rollback rejection of a replayed older signed image, and
// campaign survival under the PR7 hostile link modes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"
#include "src/fleet/attest.h"
#include "src/fleet/fleet.h"
#include "src/fleet/frame.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/harness/fleet_campaign.h"
#include "src/update/apply.h"
#include "src/update/fw_container.h"

namespace trustlite {
namespace {

std::vector<uint8_t> PackedContainer(uint32_t version, size_t bytes,
                                     uint8_t seed) {
  FirmwareContainerSpec spec;
  spec.fw_version = version;
  spec.payload.resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    spec.payload[i] = static_cast<uint8_t>(seed + 7 * i);
  }
  Result<std::vector<uint8_t>> packed = PackFirmware(spec);
  EXPECT_TRUE(packed.ok()) << packed.status().ToString();
  return *packed;
}

struct CampaignOutcome {
  UpdatePhase phase = UpdatePhase::kIdle;
  std::vector<UpdateNodeState> states;
  std::vector<int> canaries;
  std::string transcript;
};

struct UpdateRun {
  bool attest_resolved = false;
  std::vector<CampaignOutcome> campaigns;
  std::vector<AttestNodeState> attest_states;
  std::vector<uint32_t> counters;  // Per-node anti-rollback counters.
  Sha256Digest digest{};
  std::string transcript;  // Attestor + campaign transcripts.
  LinkFabric::Stats link_stats;
};

struct UpdateRunConfig {
  int nodes = 8;
  int threads = 1;
  uint64_t seed = 7;
  int canary_pct = 25;
  bool halt_on_quarantine = true;
  bool tamper_first_canary = false;
  HostileMode hostile = HostileMode::kNone;
  uint32_t hostile_ppm = 0;
  std::vector<std::vector<uint8_t>> containers;
};

UpdateRun RunUpdateFleet(const UpdateRunConfig& rc) {
  FleetConfig config;
  config.nodes = rc.nodes;
  config.topology = Topology::kStar;
  config.seed = rc.seed;
  config.threads = rc.threads;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  config.link = ApplyHostileMode(config.link, rc.hostile, rc.hostile_ppm);
  Fleet fleet(config);

  FleetProvisionConfig prov;
  for (const std::vector<uint8_t>& container : rc.containers) {
    Result<FirmwareImage> image = ParseFirmware(container);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    if (image->payload.size() > prov.payload_capacity) {
      prov.payload_capacity =
          static_cast<uint32_t>(image->payload.size());
    }
  }
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  EXPECT_TRUE(provisions.ok()) << provisions.status().ToString();

  UpdateRun run;
  FleetAttestor attestor(&fleet, *provisions, AttestPolicy{});
  attestor.Begin();
  for (uint64_t q = 0; q < 600 && !attestor.Done(); ++q) {
    fleet.RunQuantum();
    attestor.OnQuantumBoundary();
  }
  run.attest_resolved = attestor.Done();
  EXPECT_TRUE(run.attest_resolved) << "initial attestation unresolved";
  run.transcript = attestor.transcript();

  UpdateCampaignConfig ucfg;
  ucfg.canary_pct = rc.canary_pct;
  ucfg.halt_on_quarantine = rc.halt_on_quarantine;
  for (size_t k = 0; k < rc.containers.size(); ++k) {
    UpdateCampaign campaign(&fleet, &attestor, rc.containers[k], ucfg);
    EXPECT_TRUE(campaign.Start().ok());
    bool tampered = false;
    for (uint64_t q = 0; q < 2'000 && !campaign.Done(); ++q) {
      fleet.RunQuantum();
      campaign.OnQuantumBoundary();
      if (rc.tamper_first_canary && k == 0 && !tampered &&
          campaign.phase() == UpdatePhase::kCanaryVerify) {
        const int victim = campaign.canaries().front();
        EXPECT_TRUE(TamperNode(fleet.node(victim),
                               &(*provisions)[static_cast<size_t>(victim)])
                        .ok());
        tampered = true;
      }
    }
    CampaignOutcome outcome;
    outcome.phase = campaign.phase();
    for (int i = 0; i < rc.nodes; ++i) {
      outcome.states.push_back(campaign.state(i));
    }
    outcome.canaries = campaign.canaries();
    outcome.transcript = campaign.transcript();
    run.transcript += campaign.transcript();
    run.campaigns.push_back(std::move(outcome));
  }

  for (int i = 0; i < rc.nodes; ++i) {
    run.attest_states.push_back(attestor.state(i));
    Result<uint32_t> counter =
        ReadAntiRollbackCounter(&fleet.node(i).platform().bus());
    EXPECT_TRUE(counter.ok());
    run.counters.push_back(counter.ok() ? *counter : 0xFFFF'FFFFu);
  }
  run.digest = fleet.FleetDigest();
  run.link_stats = fleet.fabric().stats();
  return run;
}

int CountStates(const CampaignOutcome& outcome, UpdateNodeState want) {
  int count = 0;
  for (UpdateNodeState state : outcome.states) {
    count += state == want ? 1 : 0;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Frame layout (the corruption and truncation properties are swept over
// every family in frame_codec_test.cc).

TEST(UpdateFrameTest, EncodeScanRoundTrip) {
  const uint8_t data[] = {1, 2, 3, 4, 5};
  const std::string frame = EncodeUpdateFrame(0xABCD1234, 512, data, 5);
  ASSERT_EQ(static_cast<uint8_t>(frame[0]), kUpdateFrameMarker);
  size_t frame_start = 0;
  size_t next = 0;
  const std::string rx = std::string("noise") + frame + "tail";
  ASSERT_EQ(ScanFrame(rx, 0, Channel::kUpdate, &frame_start, &next),
            FrameScan::kFrame);
  EXPECT_EQ(frame_start, 5u);
  EXPECT_EQ(next, 5u + frame.size());
  const std::string_view got =
      std::string_view(rx).substr(frame_start, next - frame_start);
  const auto* p = reinterpret_cast<const uint8_t*>(got.data());
  EXPECT_EQ(LoadLe32(p + 1), 0xABCD1234u);
  EXPECT_EQ(LoadLe32(p + 5), 512u);
  EXPECT_EQ(DataOf(got), std::string(data, data + 5));
}

// ---------------------------------------------------------------------------
// Campaign end-to-end.

TEST(FleetUpdateTest, CleanRolloutCommitsEveryNodeAndReattests) {
  UpdateRunConfig rc;
  rc.containers.push_back(PackedContainer(2, 1200, 0x30));
  UpdateRun run = RunUpdateFleet(rc);
  ASSERT_EQ(run.campaigns.size(), 1u);
  const CampaignOutcome& outcome = run.campaigns[0];
  EXPECT_EQ(outcome.phase, UpdatePhase::kDone);
  EXPECT_EQ(CountStates(outcome, UpdateNodeState::kCommitted), rc.nodes);
  EXPECT_EQ(outcome.canaries.size(), 2u) << "25% of 8";
  for (int i = 0; i < rc.nodes; ++i) {
    EXPECT_EQ(run.counters[static_cast<size_t>(i)], 2u) << "node " << i;
    // The post-update re-attestation verified everyone against the NEW
    // golden measurement — nobody is left quarantined or unresolved.
    EXPECT_EQ(run.attest_states[static_cast<size_t>(i)],
              AttestNodeState::kVerified)
        << "node " << i;
  }
  EXPECT_NE(outcome.transcript.find("complete committed=8"),
            std::string::npos)
      << outcome.transcript;
}

TEST(FleetUpdateTest, TranscriptAndDigestIdenticalAcrossThreadCounts) {
  UpdateRunConfig rc;
  rc.containers.push_back(PackedContainer(2, 1200, 0x30));
  UpdateRun one = RunUpdateFleet(rc);
  rc.threads = 8;
  UpdateRun many = RunUpdateFleet(rc);
  EXPECT_EQ(one.transcript, many.transcript);
  EXPECT_EQ(one.digest, many.digest);
  EXPECT_EQ(one.counters, many.counters);
  ASSERT_EQ(one.campaigns.size(), many.campaigns.size());
  EXPECT_EQ(one.campaigns[0].states, many.campaigns[0].states);
  EXPECT_EQ(one.campaigns[0].canaries, many.campaigns[0].canaries);
}

TEST(FleetUpdateTest, TamperDeterminismAcrossThreadCounts) {
  UpdateRunConfig rc;
  rc.containers.push_back(PackedContainer(2, 800, 0x31));
  rc.tamper_first_canary = true;
  UpdateRun one = RunUpdateFleet(rc);
  rc.threads = 8;
  UpdateRun many = RunUpdateFleet(rc);
  EXPECT_EQ(one.transcript, many.transcript);
  EXPECT_EQ(one.digest, many.digest);
  EXPECT_EQ(one.campaigns[0].states, many.campaigns[0].states);
}

TEST(FleetUpdateTest, MidCampaignTamperAbortsRollsBackAndQuarantines) {
  UpdateRunConfig rc;
  rc.containers.push_back(PackedContainer(2, 800, 0x31));
  rc.tamper_first_canary = true;
  UpdateRun run = RunUpdateFleet(rc);
  ASSERT_EQ(run.campaigns.size(), 1u);
  const CampaignOutcome& outcome = run.campaigns[0];
  EXPECT_EQ(outcome.phase, UpdatePhase::kAborted);

  const int victim = outcome.canaries.front();
  EXPECT_EQ(outcome.states[static_cast<size_t>(victim)],
            UpdateNodeState::kQuarantined);
  EXPECT_EQ(run.attest_states[static_cast<size_t>(victim)],
            AttestNodeState::kQuarantined);
  // The other canaries were applied but uncommitted — they roll back; the
  // rest of the fleet never left pending; nothing ever committed.
  EXPECT_EQ(CountStates(outcome, UpdateNodeState::kRolledBack),
            static_cast<int>(outcome.canaries.size()) - 1);
  EXPECT_EQ(CountStates(outcome, UpdateNodeState::kCommitted), 0);
  EXPECT_EQ(CountStates(outcome, UpdateNodeState::kPending),
            rc.nodes - static_cast<int>(outcome.canaries.size()));
  for (int i = 0; i < rc.nodes; ++i) {
    EXPECT_EQ(run.counters[static_cast<size_t>(i)], 0u)
        << "counter advanced on node " << i << " despite the abort";
    if (i == victim) {
      continue;
    }
    // Rolled-back and pending nodes re-attest cleanly against the OLD
    // golden — the abort restored both image and golden custody.
    EXPECT_EQ(run.attest_states[static_cast<size_t>(i)],
              AttestNodeState::kVerified)
        << "node " << i;
  }
  EXPECT_NE(outcome.transcript.find("aborted"), std::string::npos);
  EXPECT_NE(outcome.transcript.find("rolled back"), std::string::npos);
}

TEST(FleetUpdateTest, ReplayedOlderImageRejectedFleetWide) {
  UpdateRunConfig rc;
  rc.canary_pct = 100;  // Single-stage: every node sees the replay.
  rc.containers.push_back(PackedContainer(3, 600, 0x32));
  rc.containers.push_back(PackedContainer(2, 600, 0x33));  // The replay.
  UpdateRun run = RunUpdateFleet(rc);
  ASSERT_EQ(run.campaigns.size(), 2u);
  EXPECT_EQ(run.campaigns[0].phase, UpdatePhase::kDone);
  EXPECT_EQ(CountStates(run.campaigns[0], UpdateNodeState::kCommitted),
            rc.nodes);

  const CampaignOutcome& replay = run.campaigns[1];
  EXPECT_EQ(replay.phase, UpdatePhase::kAborted);
  EXPECT_EQ(CountStates(replay, UpdateNodeState::kRejected), rc.nodes);
  EXPECT_EQ(CountStates(replay, UpdateNodeState::kCommitted), 0);
  for (int i = 0; i < rc.nodes; ++i) {
    EXPECT_EQ(run.counters[static_cast<size_t>(i)], 3u) << "node " << i;
  }
  EXPECT_NE(replay.transcript.find("anti-rollback"), std::string::npos)
      << replay.transcript;
}

TEST(FleetUpdateTest, CampaignSurvivesHostileLinkMatrix) {
  const struct {
    HostileMode mode;
    uint32_t ppm;
  } kCases[] = {
      // Corrupted chunks are dropped by the frame CRC and retransmit on
      // the stop-and-wait deadline; replay and reflection never damage the
      // fresh copy and can run hotter.
      {HostileMode::kCorrupt, 150'000},
      {HostileMode::kReplay, 500'000},
      {HostileMode::kReflect, 500'000},
  };
  for (const auto& hostile : kCases) {
    SCOPED_TRACE(HostileModeName(hostile.mode));
    UpdateRunConfig rc;
    rc.nodes = 6;
    rc.canary_pct = 34;
    rc.hostile = hostile.mode;
    rc.hostile_ppm = hostile.ppm;
    rc.containers.push_back(PackedContainer(2, 700, 0x34));
    UpdateRun run = RunUpdateFleet(rc);
    ASSERT_EQ(run.campaigns.size(), 1u);
    EXPECT_EQ(run.campaigns[0].phase, UpdatePhase::kDone)
        << run.campaigns[0].transcript;
    EXPECT_EQ(CountStates(run.campaigns[0], UpdateNodeState::kCommitted),
              rc.nodes);
    switch (hostile.mode) {
      case HostileMode::kCorrupt:
        EXPECT_GT(run.link_stats.corrupted, 0u);
        break;
      case HostileMode::kReplay:
        EXPECT_GT(run.link_stats.replayed, 0u);
        break;
      case HostileMode::kReflect:
        EXPECT_GT(run.link_stats.reflected, 0u);
        break;
      default:
        break;
    }
  }
}

TEST(FleetUpdateTest, ReflectedTransferFramesNeverApply) {
  UpdateRunConfig rc;
  rc.nodes = 6;
  rc.canary_pct = 34;
  rc.hostile = HostileMode::kReflect;
  rc.hostile_ppm = 1'000'000;  // Echo EVERY verifier transmission.
  rc.containers.push_back(PackedContainer(2, 700, 0x35));
  UpdateRun run = RunUpdateFleet(rc);
  ASSERT_EQ(run.campaigns.size(), 1u);
  const CampaignOutcome& outcome = run.campaigns[0];
  EXPECT_EQ(outcome.phase, UpdatePhase::kDone) << outcome.transcript;
  EXPECT_GT(run.link_stats.reflected, 0u);
  // Every node applied exactly once: the echoed frames landed in the
  // verifier's own attestation stream as noise and never reached a node's
  // update staging path, so no double/spurious apply is ever logged.
  size_t applies = 0;
  size_t pos = 0;
  while ((pos = outcome.transcript.find(" applied v", pos)) !=
         std::string::npos) {
    ++applies;
    ++pos;
  }
  EXPECT_EQ(applies, static_cast<size_t>(rc.nodes));
  EXPECT_EQ(CountStates(outcome, UpdateNodeState::kCommitted), rc.nodes);
}

}  // namespace
}  // namespace trustlite
