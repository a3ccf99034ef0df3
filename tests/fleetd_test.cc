// Copyright 2026 The TrustLite Reproduction Authors.
// Fleet control-plane tests (DESIGN.md §17): the control wire codecs
// (config push / ack / health), the FleetController lifecycle — attestation-
// gated admission, re-attestation epochs, OTA update phases, digest-checked
// config push, snapshot scale-up with in-place re-key — and the headline
// properties:
// quarantine reasons are stable and correct, a restored clone attests as
// ITSELF (new key, distinct digest stream), and whole sessions are
// bit-identical from --threads 1 to --threads 8, hostile links included.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/frame.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/harness/fleet_campaign.h"
#include "src/platform/observe/json.h"
#include "src/snapshot/snapshot.h"
#include "src/update/fw_container.h"

namespace trustlite {
namespace {

// --- Wire codecs ---------------------------------------------------------
// Field layouts of the control families through the one frame scanner;
// frame_codec_test.cc sweeps corruption and truncation over every family.

// The bytes of the frame a scan found, and a byte pointer to its marker.
std::string_view FoundFrame(const std::string& rx, size_t start, size_t end) {
  return std::string_view(rx).substr(start, end - start);
}
const uint8_t* Bytes(std::string_view frame) {
  return reinterpret_cast<const uint8_t*>(frame.data());
}

TEST(ControlWireTest, ConfigFrameRoundTrip) {
  const std::string frame = EncodeConfigFrame(0xDEADBEEF, 7, "mode=eco\n");
  size_t frame_start = 0;
  size_t next_offset = 0;
  ASSERT_EQ(ScanFrame(frame, 0, Channel::kConfig, &frame_start, &next_offset),
            FrameScan::kFrame);
  const std::string_view got = FoundFrame(frame, frame_start, next_offset);
  EXPECT_EQ(LoadLe32(Bytes(got) + 1), 0xDEADBEEFu);
  EXPECT_EQ(LoadLe32(Bytes(got) + 5), 7u);
  EXPECT_EQ(DataOf(got), "mode=eco\n");
  EXPECT_EQ(next_offset, frame.size());
}

TEST(ControlWireTest, ConfigScannerSkipsNoiseAndCorruption) {
  std::string stream = "garbage";
  std::string corrupted = EncodeConfigFrame(1, 1, "k=v\n");
  corrupted[5] ^= 0x40;  // Body flip: CRC must reject.
  stream += corrupted;
  stream += EncodeConfigFrame(2, 2, "k=w\n");
  size_t frame_start = 0;
  size_t next_offset = 0;
  ASSERT_EQ(ScanFrame(stream, 0, Channel::kConfig, &frame_start,
                      &next_offset),
            FrameScan::kFrame);
  const std::string_view got = FoundFrame(stream, frame_start, next_offset);
  EXPECT_EQ(LoadLe32(Bytes(got) + 1), 2u);
  EXPECT_EQ(DataOf(got), "k=w\n");
}

TEST(ControlWireTest, AckAndHealthShareOneScanner) {
  HealthBeacon beacon;
  beacon.cycle = 123'456'789;
  beacon.instructions = 42;
  beacon.tx_bytes = 7;
  beacon.rx_bytes = 9;
  beacon.config_generation = 3;
  beacon.halted = true;
  const Sha256Digest digest = ConfigRegionDigest(3, "a=b\n");
  std::string stream = EncodeHealthFrame(beacon);
  stream += "noise";
  stream += EncodeConfigAck(55, 3, digest);

  size_t frame_start = 0;
  size_t next_offset = 0;
  ASSERT_EQ(ScanFrame(stream, 0, Channel::kControl, &frame_start,
                      &next_offset),
            FrameScan::kFrame);
  const uint8_t* health = Bytes(FoundFrame(stream, frame_start, next_offset));
  ASSERT_EQ(health[0], kHealthFrameMarker);
  EXPECT_EQ(LoadLe64(health + 1), beacon.cycle);
  EXPECT_EQ(LoadLe64(health + 9), beacon.instructions);
  EXPECT_EQ(LoadLe64(health + 17), beacon.tx_bytes);
  EXPECT_EQ(LoadLe64(health + 25), beacon.rx_bytes);
  EXPECT_EQ(LoadLe32(health + 33), beacon.config_generation);
  EXPECT_EQ(health[37], 1u);  // halted

  ASSERT_EQ(ScanFrame(stream, next_offset, Channel::kControl, &frame_start,
                      &next_offset),
            FrameScan::kFrame);
  const uint8_t* ack = Bytes(FoundFrame(stream, frame_start, next_offset));
  ASSERT_EQ(ack[0], kConfigAckMarker);
  EXPECT_EQ(LoadLe32(ack + 1), 55u);
  EXPECT_EQ(LoadLe32(ack + 5), 3u);
  EXPECT_TRUE(std::equal(digest.begin(), digest.end(), ack + 9));
  EXPECT_EQ(next_offset, stream.size());
}

TEST(ControlWireTest, BlobAndRegionDigest) {
  const std::string blob =
      EncodeConfigBlob({{"log", "debug"}, {"rate", "50"}});
  EXPECT_EQ(blob, "log=debug\nrate=50\n");
  // The digest pins the generation too: same blob, new generation, new
  // digest (an old ack can never settle a newer push).
  EXPECT_NE(ConfigRegionDigest(1, blob), ConfigRegionDigest(2, blob));
}

// --- Controller lifecycle ------------------------------------------------

struct Session {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FleetController> controller;
};

Session MakeSession(int nodes, uint64_t seed, int threads,
                    const FleetdPolicy& policy, int tamper = 0,
                    HostileMode hostile = HostileMode::kNone,
                    uint32_t loss_ppm = 0, uint32_t payload_capacity = 0) {
  FleetConfig config;
  config.nodes = nodes;
  config.topology = Topology::kStar;
  config.seed = seed;
  config.threads = threads;
  config.link.latency_cycles = 1'000;
  config.link.loss_ppm = loss_ppm;
  config.link = ApplyHostileMode(config.link, hostile, 150'000);
  Session session;
  session.fleet = std::make_unique<Fleet>(config);
  FleetProvisionConfig prov;
  prov.tamper_count = tamper;
  prov.payload_capacity = payload_capacity;
  auto provisions = ProvisionAttestationFleet(session.fleet.get(), prov);
  EXPECT_TRUE(provisions.ok()) << provisions.status().ToString();
  session.controller = std::make_unique<FleetController>(
      session.fleet.get(), std::move(*provisions), policy);
  return session;
}

TEST(FleetControllerTest, AdmissionConfigPushAndHealth) {
  FleetdPolicy policy;
  policy.beacon_every_quanta = 4;
  Session s = MakeSession(4, 3, 1, policy);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  EXPECT_EQ(s.controller->Admitted().size(), 4u);

  ASSERT_TRUE(s.controller->RunReattestEpoch().ok());
  ASSERT_TRUE(
      s.controller->PushConfig({{"mode", "eco"}, {"rate", "9600"}}).ok());
  EXPECT_EQ(s.controller->config_generation(), 1u);
  for (int i = 0; i < 4; ++i) {
    const NodeHealth& health = s.controller->health(i);
    EXPECT_EQ(health.roster, RosterState::kAdmitted);
    EXPECT_EQ(health.config_generation, 1u);
    EXPECT_GT(health.last_verified_cycle, 0u);
    // Beacons flowed during the idle window and carry real counters.
    EXPECT_GT(health.beacon_seen_cycle, 0u);
    EXPECT_GT(health.beacon.instructions, 0u);
  }
  // A second push bumps the generation on the same region.
  ASSERT_TRUE(s.controller->PushConfig({{"mode", "perf"}}).ok());
  EXPECT_EQ(s.controller->health(0).config_generation, 2u);

  // Every status epoch is valid JSON.
  ASSERT_GE(s.controller->status_epochs().size(), 4u);
  for (const std::string& epoch : s.controller->status_epochs()) {
    std::string error;
    EXPECT_TRUE(JsonParses(epoch, &error)) << error << "\n" << epoch;
  }
}

TEST(FleetControllerTest, TamperedNodeQuarantinesWithMismatchReason) {
  Session s = MakeSession(4, 3, 1, FleetdPolicy{}, /*tamper=*/1);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  ASSERT_EQ(s.controller->Quarantined().size(), 1u);
  const int victim = s.controller->Quarantined()[0];
  EXPECT_EQ(s.controller->health(victim).reason,
            QuarantineReason::kMismatch);
  EXPECT_EQ(s.controller->health(victim).roster, RosterState::kQuarantined);
  // The stable reason name lands in the attestor transcript.
  EXPECT_NE(
      s.controller->attestor().transcript().find("quarantined reason=mismatch"),
      std::string::npos);
  // Quarantined nodes are excluded from pushes but the roster still works.
  ASSERT_TRUE(s.controller->PushConfig({{"k", "v"}}).ok());
  EXPECT_EQ(s.controller->health(victim).config_generation, 0u);
}

TEST(FleetControllerTest, DeadLinksQuarantineWithTimeoutReason) {
  FleetdPolicy policy;
  policy.attest.timeout_cycles = 100'000;
  policy.attest.backoff_base_cycles = 20'000;
  Session s = MakeSession(2, 3, 1, policy, /*tamper=*/0, HostileMode::kNone,
                          /*loss_ppm=*/1'000'000);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  EXPECT_EQ(s.controller->Admitted().size(), 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(s.controller->health(i).reason, QuarantineReason::kTimeout);
  }
}

TEST(FleetControllerTest, HaltOnQuarantineFailsThePhase) {
  FleetdPolicy policy;
  policy.halt_on_quarantine = true;
  Session s = MakeSession(4, 3, 1, policy, /*tamper=*/1);
  const Status status = s.controller->RunAdmission();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("halt-on-quarantine"), std::string::npos);
}

// --- Update phase ---------------------------------------------------------

// FW payload window reserved for the update tests' images.
constexpr uint32_t kUpdateCapacity = 1024;

std::vector<uint8_t> PackedContainer(uint32_t version, size_t bytes) {
  FirmwareContainerSpec spec;
  spec.fw_version = version;
  spec.payload.resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    spec.payload[i] = static_cast<uint8_t>(version + 7 * i);
  }
  Result<std::vector<uint8_t>> packed = PackFirmware(spec);
  EXPECT_TRUE(packed.ok()) << packed.status().ToString();
  return *packed;
}

// The "phase" of every status epoch, in order.
std::vector<std::string> EpochPhases(const FleetController& controller) {
  std::vector<std::string> phases;
  for (const std::string& epoch : controller.status_epochs()) {
    const size_t start = epoch.find(':') + 2;
    phases.push_back(epoch.substr(start, epoch.find('"', start) - start));
  }
  return phases;
}

// An update hook that flips one FW code bit on the first canary as its
// re-attestation starts (the CLI's --update-tamper-canary), recording the
// victim.
std::function<void(const UpdateCampaign&)> TamperFirstCanary(Session* s,
                                                              int* victim) {
  return [s, victim](const UpdateCampaign& campaign) {
    if (*victim < 0 && campaign.phase() == UpdatePhase::kCanaryVerify) {
      *victim = campaign.canaries().front();
      NodeProvision provision = s->controller->attestor().provision(*victim);
      EXPECT_TRUE(TamperNode(s->fleet->node(*victim), &provision).ok());
    }
  };
}

TEST(FleetControllerTest, UpdatePhaseCommitsEveryAdmittedNode) {
  Session s = MakeSession(8, 7, 1, FleetdPolicy{}, /*tamper=*/0,
                          HostileMode::kNone, 0, kUpdateCapacity);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  ASSERT_TRUE(s.controller->RunReattestEpoch().ok());
  const Status updated =
      s.controller->RunUpdate(PackedContainer(2, 600), /*canary_pct=*/25);
  ASSERT_TRUE(updated.ok()) << updated.ToString();
  // The post-push round re-attests every node against the new golden code.
  ASSERT_TRUE(s.controller->PushConfig({{"mode", "eco"}}).ok());

  ASSERT_EQ(s.controller->campaigns().size(), 1u);
  const UpdateCampaign& campaign = s.controller->campaigns()[0];
  EXPECT_TRUE(campaign.Succeeded());
  EXPECT_EQ(campaign.CountInState(UpdateNodeState::kCommitted), 8);
  EXPECT_EQ(s.controller->Admitted().size(), 8u);
  EXPECT_EQ(EpochPhases(*s.controller),
            (std::vector<std::string>{"admission", "reattest", "update",
                                      "config-push"}));
  EXPECT_NE(s.controller->transcript().find("update campaign=0 version=2"),
            std::string::npos);
}

TEST(FleetControllerTest, MidCampaignTamperDemotesTheCanaryWithoutHalt) {
  Session s = MakeSession(8, 7, 1, FleetdPolicy{}, /*tamper=*/0,
                          HostileMode::kNone, 0, kUpdateCapacity);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  int victim = -1;
  const Status updated = s.controller->RunUpdate(
      PackedContainer(2, 600), 25, TamperFirstCanary(&s, &victim));
  EXPECT_TRUE(updated.ok()) << updated.ToString();
  ASSERT_GE(victim, 0);

  const UpdateCampaign& campaign = s.controller->campaigns()[0];
  EXPECT_TRUE(campaign.Succeeded());
  EXPECT_EQ(campaign.state(victim), UpdateNodeState::kQuarantined);
  EXPECT_EQ(campaign.CountInState(UpdateNodeState::kCommitted), 7);
  EXPECT_EQ(s.controller->health(victim).roster, RosterState::kQuarantined);
  EXPECT_EQ(s.controller->health(victim).reason, QuarantineReason::kMismatch);
  EXPECT_EQ(s.controller->Admitted().size(), 7u);
  EXPECT_NE(s.controller->transcript().find(
                "demoted node=" + std::to_string(victim) + " reason=mismatch"),
            std::string::npos);
}

TEST(FleetControllerTest, MidCampaignTamperWithHaltFailsAndRollsBack) {
  FleetdPolicy policy;
  policy.halt_on_quarantine = true;
  Session s = MakeSession(8, 7, 1, policy, /*tamper=*/0, HostileMode::kNone,
                          0, kUpdateCapacity);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  int victim = -1;
  const Status updated = s.controller->RunUpdate(
      PackedContainer(2, 600), 25, TamperFirstCanary(&s, &victim));
  EXPECT_FALSE(updated.ok());
  EXPECT_NE(updated.ToString().find("halt-on-quarantine"), std::string::npos);
  ASSERT_GE(victim, 0);

  const UpdateCampaign& campaign = s.controller->campaigns()[0];
  EXPECT_EQ(campaign.phase(), UpdatePhase::kAborted);
  EXPECT_EQ(campaign.CountInState(UpdateNodeState::kCommitted), 0);
  ASSERT_GE(campaign.canaries().size(), 2u);
  for (int canary : campaign.canaries()) {
    EXPECT_EQ(campaign.state(canary), canary == victim
                                          ? UpdateNodeState::kQuarantined
                                          : UpdateNodeState::kRolledBack);
  }
  EXPECT_EQ(s.controller->health(victim).roster, RosterState::kQuarantined);
  EXPECT_EQ(EpochPhases(*s.controller).back(), "update");
  // The rolled-back canaries run their old image again: they re-attest
  // against the old golden code and stay admitted.
  ASSERT_TRUE(s.controller->RunReattestEpoch().ok());
  EXPECT_EQ(s.controller->Admitted().size(), 7u);
}

// --- Snapshot scale-up (mid-run node cloning) ----------------------------

TEST(FleetControllerTest, ScaleUpClonesRekeyAndDiverge) {
  FleetdPolicy policy;
  Session s = MakeSession(4, 5, 1, policy);
  ASSERT_TRUE(s.controller->RunAdmission().ok());
  ASSERT_TRUE(s.controller->ScaleUp(2).ok());
  ASSERT_EQ(s.fleet->num_nodes(), 6);
  EXPECT_EQ(s.controller->Admitted().size(), 6u);

  // The clone carries its OWN derived key, not its source's.
  for (int clone = 4; clone < 6; ++clone) {
    const int src = s.controller->health(clone).cloned_from;
    ASSERT_GE(src, 0);
    EXPECT_NE(s.controller->attestor().provision(clone).key,
              s.controller->attestor().provision(src).key);
    EXPECT_EQ(s.controller->attestor().provision(clone).key,
              DeriveDeviceKey(s.fleet->config().seed, clone));
  }

  // Mid-run state diverges: after more quanta the clone's digest stream is
  // distinct from its source's (different key material and TRNG stream).
  ASSERT_TRUE(s.controller->RunReattestEpoch().ok());
  for (int clone = 4; clone < 6; ++clone) {
    const int src = s.controller->health(clone).cloned_from;
    EXPECT_NE(s.fleet->node(clone).StateDigest(),
              s.fleet->node(src).StateDigest());
  }
}

TEST(FleetControllerTest, ScaleUpRequiresAStarTopology) {
  FleetConfig config;
  config.nodes = 4;
  config.topology = Topology::kRing;
  config.seed = 5;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  auto provisions = ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok());
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());
  EXPECT_FALSE(controller.ScaleUp(1).ok());
}

// --- One copy path: LocateIdentitySites fails closed ---------------------
// Each bad identity state is host-written into a warm-provisioned node.

struct WarmFleet {
  std::unique_ptr<Fleet> fleet;
  std::vector<NodeProvision> provisions;
};

WarmFleet MakeWarmFleet(int nodes) {
  FleetConfig config;
  config.nodes = nodes;
  config.seed = 21;
  WarmFleet warm;
  warm.fleet = std::make_unique<Fleet>(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  auto provisions = ProvisionAttestationFleet(warm.fleet.get(), prov);
  EXPECT_TRUE(provisions.ok()) << provisions.status().ToString();
  warm.provisions = std::move(*provisions);
  return warm;
}

std::vector<uint8_t> LiveAttnCode(FleetNode& node, const NodeProvision& p) {
  std::vector<uint8_t> code;
  EXPECT_TRUE(node.platform().bus().HostReadBytes(p.attn_code_addr,
                                                  p.attn_code_size, &code));
  return code;
}

// Copies the attestation measurement into the last 32 bytes of the
// Trustlet-Table window: a second row claiming the same code.
void DuplicateMeasurementRow(FleetNode& node, const NodeProvision& p) {
  const Sha256Digest measurement = Sha256Hash(LiveAttnCode(node, p));
  ASSERT_TRUE(node.platform().bus().HostWriteBytes(
      kSramBase + kSramSize - kSha256DigestSize,
      std::vector<uint8_t>(measurement.begin(), measurement.end())));
}

void ExpectLocateFailsClosed(FleetNode& node, const NodeProvision& p,
                             const std::string& expected_error) {
  const Sha256Digest before = node.StateDigest();
  Result<IdentitySites> sites = LocateIdentitySites(node, p);
  ASSERT_FALSE(sites.ok());
  EXPECT_NE(sites.status().message().find(expected_error), std::string::npos)
      << sites.status().ToString();
  EXPECT_EQ(node.StateDigest(), before);
}

TEST(NodeCopyTest, KeyTwiceInTheAttestationCodeFailsClosed) {
  WarmFleet warm = MakeWarmFleet(2);
  FleetNode& node = warm.fleet->node(1);
  const NodeProvision& p = warm.provisions[1];
  const std::vector<uint8_t> code = LiveAttnCode(node, p);
  const auto it = std::search(code.begin(), code.end(), p.key.begin(),
                              p.key.end());
  ASSERT_NE(it, code.end());
  // A second copy that does not overlap the first.
  const uint32_t copy_at =
      it - code.begin() >= 32 ? 0 : p.attn_code_size - 32;
  ASSERT_TRUE(node.platform().bus().HostWriteBytes(
      p.attn_code_addr + copy_at,
      std::vector<uint8_t>(p.key.begin(), p.key.end())));
  ExpectLocateFailsClosed(node, p,
                          "ambiguous device key in live attestation code");
}

TEST(NodeCopyTest, MeasurementInTwoTrustletTableRowsFailsClosed) {
  WarmFleet warm = MakeWarmFleet(2);
  FleetNode& node = warm.fleet->node(1);
  DuplicateMeasurementRow(node, warm.provisions[1]);
  ExpectLocateFailsClosed(node, warm.provisions[1],
                          "ambiguous attestation measurement in Trustlet "
                          "Table");
}

TEST(NodeCopyTest, PromImageWithoutTheKeyFailsClosed) {
  WarmFleet warm = MakeWarmFleet(2);
  FleetNode& node = warm.fleet->node(1);
  const NodeProvision& p = warm.provisions[1];
  Prom& prom = node.platform().prom();
  const std::span<const uint8_t> bytes = prom.data();
  for (auto it = std::search(bytes.begin(), bytes.end(), p.key.begin(),
                             p.key.end());
       it != bytes.end();
       it = std::search(bytes.begin(), bytes.end(), p.key.begin(),
                        p.key.end())) {
    const uint32_t offset = static_cast<uint32_t>(it - bytes.begin());
    prom.LoadBytes(offset, std::vector<uint8_t>{static_cast<uint8_t>(~*it)});
  }
  ExpectLocateFailsClosed(node, p, "device key not found in PROM image");
}

TEST(NodeCopyTest, ProvisionWithoutAttestationGeometryFailsClosed) {
  WarmFleet warm = MakeWarmFleet(2);
  NodeProvision p = warm.provisions[1];
  p.attn_code_size = 0;
  ExpectLocateFailsClosed(warm.fleet->node(1), p,
                          "provision lacks attestation code geometry");
}

TEST(FleetControllerTest, ScaleUpRejectsASourceWithTwoMeasurementRows) {
  // A copy rewrites the one row that measures its attestation code; with
  // two candidate rows the phase fails before the fleet grows.
  WarmFleet warm = MakeWarmFleet(4);
  FleetController controller(warm.fleet.get(), warm.provisions,
                             FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());
  ASSERT_EQ(controller.Admitted().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    DuplicateMeasurementRow(warm.fleet->node(i), warm.provisions[i]);
  }
  const Status scaled = controller.ScaleUp(1);
  EXPECT_FALSE(scaled.ok());
  EXPECT_NE(scaled.message().find("ambiguous attestation measurement"),
            std::string::npos)
      << scaled.ToString();
  EXPECT_EQ(warm.fleet->num_nodes(), 4);
  EXPECT_EQ(controller.num_nodes(), 4);
}

// --- Thread-count invariance (hostile matrix) ----------------------------

struct SessionResult {
  std::string attestor_transcript;
  std::string campaign_transcript;
  std::string controller_transcript;
  std::vector<std::string> status_epochs;
  Sha256Digest digest{};
  size_t admitted = 0;
};

SessionResult RunFullSession(int threads, HostileMode hostile) {
  FleetdPolicy policy;
  policy.epoch_idle_quanta = 8;
  policy.beacon_every_quanta = 4;
  Session s = MakeSession(8, 11, threads, policy, /*tamper=*/0, hostile,
                          /*loss_ppm=*/0, kUpdateCapacity);
  EXPECT_TRUE(s.controller->RunAdmission().ok());
  EXPECT_TRUE(s.controller->RunReattestEpoch().ok());
  EXPECT_TRUE(s.controller->RunUpdate(PackedContainer(2, 600), 25).ok());
  EXPECT_TRUE(s.controller->PushConfig({{"mode", "eco"}}).ok());
  EXPECT_TRUE(s.controller->ScaleUp(2).ok());
  s.controller->Drain();
  SessionResult result;
  result.attestor_transcript = s.controller->attestor().transcript();
  result.campaign_transcript = s.controller->campaigns()[0].transcript();
  result.controller_transcript = s.controller->transcript();
  result.status_epochs = s.controller->status_epochs();
  result.digest = s.fleet->FleetDigest();
  result.admitted = s.controller->Admitted().size();
  return result;
}

TEST(FleetControllerTest, SessionsAreBitIdenticalAcrossThreadsHostileMatrix) {
  for (HostileMode hostile :
       {HostileMode::kNone, HostileMode::kCorrupt, HostileMode::kReplay,
        HostileMode::kReflect}) {
    const SessionResult t1 = RunFullSession(1, hostile);
    const SessionResult t8 = RunFullSession(8, hostile);
    EXPECT_EQ(t1.attestor_transcript, t8.attestor_transcript);
    EXPECT_EQ(t1.campaign_transcript, t8.campaign_transcript);
    EXPECT_EQ(t1.controller_transcript, t8.controller_transcript);
    EXPECT_EQ(t1.status_epochs, t8.status_epochs);
    EXPECT_EQ(t1.digest, t8.digest);
    // Hostile links may not defeat the control plane: every node is updated,
    // and everyone (8 originals + 2 clones) ends up admitted.
    EXPECT_NE(t1.campaign_transcript.find("complete committed=8"),
              std::string::npos);
    EXPECT_EQ(t1.admitted, 10u);
  }
}

// --- The `fast-path:` line of tlfleetd --stats --------------------------
// FormatFleetStats sums the fast-path counters that Fleet::SummaryRows reads
// from each node, and gives the code-cache entries the nodes hold in total
// and on the largest node. They are per node, so the line is the same at
// any thread count.

// The fast-path line of a warm attested 8-node fleet after admission and one
// epoch, run on `threads` workers; checked against sums read straight from
// the nodes.
std::string FastPathLine(int threads) {
  FleetConfig config;
  config.nodes = 8;
  config.topology = Topology::kStar;
  config.seed = 42;
  config.threads = threads;
  config.link.latency_cycles = 1'000;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  auto provisions = ProvisionAttestationFleet(&fleet, prov);
  EXPECT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  EXPECT_TRUE(controller.RunAdmission().ok());
  EXPECT_TRUE(controller.RunReattestEpoch().ok());

  CpuStats sum;
  uint64_t cycles = 0;
  uint64_t checks = 0;
  uint64_t entries = 0;
  uint64_t max_entries = 0;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    Platform& platform = fleet.node(i).platform();
    const CpuStats& cpu = platform.cpu().stats();
    sum.instructions += cpu.instructions;
    sum.fusion_groups += cpu.fusion_groups;
    sum.fusion_retired += cpu.fusion_retired;
    sum.decode_misses += cpu.decode_misses;
    sum.data_window_misses += cpu.data_window_misses;
    sum.irq_polls += cpu.irq_polls;
    sum.trustlet_interrupts += cpu.trustlet_interrupts;
    cycles += platform.cpu().cycles();
    checks += platform.mpu()->stats().checks;
    const uint64_t node_entries = platform.cpu().code_entries();
    entries += node_entries;
    max_entries = std::max(max_entries, node_entries);
  }
  EXPECT_GT(sum.fusion_retired, 0u);
  EXPECT_GT(max_entries, 0u);
  EXPECT_GT(sum.trustlet_interrupts, 0u);
  char want[320];
  std::snprintf(
      want, sizeof(want),
      "fast-path: insn %" PRIu64 "   fused %.1f%%   insn/group %.2f"
      "   decode-misses %" PRIu64 "   window-misses %" PRIu64
      "   mpu-checks %" PRIu64 "   irq-polls %" PRIu64
      "   trustlet-exc/kcycle %.3f   code-entries %" PRIu64 " (max %" PRIu64
      ")",
      sum.instructions,
      100.0 * static_cast<double>(sum.fusion_retired) /
          static_cast<double>(sum.instructions),
      static_cast<double>(sum.fusion_retired) /
          static_cast<double>(sum.fusion_groups),
      sum.decode_misses, sum.data_window_misses, checks, sum.irq_polls,
      1000.0 * static_cast<double>(sum.trustlet_interrupts) /
          static_cast<double>(cycles),
      entries, max_entries);

  const std::string stats = FormatFleetStats(fleet.SummaryRows());
  const size_t start = stats.find("\nfast-path: ");
  EXPECT_NE(start, std::string::npos) << stats;
  if (start == std::string::npos) {
    return "";
  }
  const std::string line =
      stats.substr(start + 1, stats.find('\n', start + 1) - start - 1);
  EXPECT_EQ(line, want);
  return line;
}

TEST(FleetStatsTest, FastPathLineSumsNodesAtAnyThreadCount) {
  const std::string t1 = FastPathLine(1);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, FastPathLine(4));
}

// --- Node footprint (DESIGN.md §15, "Node memory: pages on demand") -----
// A node's memories cost host RAM only for the pages it writes, and its
// write maps count them. The pins are the marked SRAM + DRAM + PROM pages of
// each node of a warm 16-node session; a change that makes nodes write
// more pages (and so cost more memory) moves them.

TEST(NodeFootprintTest, WarmSessionMarksThePinnedPagesPerNode) {
  FleetConfig config;
  config.nodes = 16;
  config.topology = Topology::kStar;
  config.seed = 42;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  auto provisions = ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(controller.RunReattestEpoch().ok());
  }
  ASSERT_TRUE(controller.PushConfig({{"k", "v"}}).ok());
  ASSERT_TRUE(controller.ScaleUp(4).ok());
  ASSERT_EQ(fleet.num_nodes(), 20);

  // {SRAM, DRAM, PROM} pages per node, originals and clones alike.
  std::vector<std::array<int, 3>> marked;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    Platform& p = fleet.node(i).platform();
    std::array<int, 3> pages{};
    int m = 0;
    for (const Ram* ram :
         std::initializer_list<const Ram*>{&p.sram(), &p.dram(), &p.prom()}) {
      pages[m++] = static_cast<int>(std::count_if(
          ram->write_map().begin(), ram->write_map().end(),
          [](uint8_t mark) { return mark != 0; }));
    }
    marked.push_back(pages);
  }
  EXPECT_EQ(marked, (std::vector<std::array<int, 3>>(20, {7, 1, 1})));
}

}  // namespace
}  // namespace trustlite
