// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/control.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {
namespace {

// Domain-separation salt for config push ids (unrelated to the
// key/tamper/challenge/campaign streams).
constexpr uint64_t kConfigSalt = 0x636F6E6669672020ull;  // "config  "

// Appends `,"name":value` to a JSON object under construction.
void AppendField(std::string* out, const char* name, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", name,
                static_cast<unsigned long long>(value));
  *out += buf;
}

}  // namespace

const char* RosterStateName(RosterState state) {
  switch (state) {
    case RosterState::kPending:
      return "pending";
    case RosterState::kAdmitted:
      return "admitted";
    case RosterState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

std::string EncodeConfigBlob(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string blob;
  for (const auto& [key, value] : entries) {
    blob += key;
    blob += '=';
    blob += value;
    blob += '\n';
  }
  return blob;
}

std::vector<uint8_t> ConfigRegionImage(uint32_t generation,
                                       std::string_view blob) {
  std::vector<uint8_t> region(kNodeConfigRegionSize, 0);
  StoreLe32(region.data(), generation);
  StoreLe32(region.data() + 4, static_cast<uint32_t>(blob.size()));
  std::copy(blob.begin(), blob.end(), region.begin() + 8);
  return region;
}

Sha256Digest ConfigRegionDigest(uint32_t generation, const std::string& blob) {
  return Sha256Hash(ConfigRegionImage(generation, blob));
}

std::string EncodeConfigFrame(uint32_t push_id, uint32_t generation,
                              const std::string& blob) {
  return EncodeDataFrame(kConfigFrameMarker, push_id, generation,
                         reinterpret_cast<const uint8_t*>(blob.data()),
                         blob.size());
}

std::string EncodeConfigAck(uint32_t push_id, uint32_t generation,
                            const Sha256Digest& digest) {
  std::vector<uint8_t> frame = {kConfigAckMarker};
  AppendLe32(frame, push_id);
  AppendLe32(frame, generation);
  frame.insert(frame.end(), digest.begin(), digest.end());
  return SealFrame(std::move(frame));
}

std::string EncodeHealthFrame(const HealthBeacon& beacon) {
  std::vector<uint8_t> frame = {kHealthFrameMarker};
  AppendLe64(frame, beacon.cycle);
  AppendLe64(frame, beacon.instructions);
  AppendLe64(frame, beacon.tx_bytes);
  AppendLe64(frame, beacon.rx_bytes);
  AppendLe32(frame, beacon.config_generation);
  frame.push_back(beacon.halted ? 1 : 0);
  return SealFrame(std::move(frame));
}

// --- FleetController -----------------------------------------------------

FleetController::FleetController(Fleet* fleet,
                                 std::vector<NodeProvision> provisions,
                                 const FleetdPolicy& policy)
    : fleet_(fleet),
      attestor_(fleet, std::move(provisions), policy.attest),
      policy_(policy) {
  const size_t n = static_cast<size_t>(fleet_->num_nodes());
  health_.resize(n);
  agents_.resize(n);
  control_rx_offset_.resize(n, 0);
  push_.resize(n);
}

void FleetController::Log(const std::string& event) {
  AppendTranscriptLine(&transcript_, fleet_->now(), "fleetd", event);
}

void FleetController::Pump(UpdateCampaign* campaign) {
  fleet_->RunQuantum();
  ++quanta_run_;
  PumpNodeAgents();
  ProcessControlRx();
  if (campaign != nullptr) {
    campaign->OnQuantumBoundary();  // Pumps the attestor in verify waves.
  } else {
    attestor_.OnQuantumBoundary();
  }
}

void FleetController::RunIdle(uint64_t quanta) {
  for (uint64_t i = 0; i < quanta; ++i) {
    Pump();
  }
}

template <typename DoneFn>
bool FleetController::PumpUntil(DoneFn done) {
  for (uint64_t i = 0; i < policy_.phase_quanta; ++i) {
    if (done()) {
      return true;
    }
    Pump();
  }
  return done();
}

void FleetController::PumpNodeAgents() {
  // Strictly node-id order; each agent touches only node-local state plus
  // serial fabric sends — the determinism contract of SendToVerifier.
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    NodeAgent& agent = agents_[static_cast<size_t>(i)];
    FleetNode& node = fleet_->node(i);

    // Config agent: apply staged 0xC6 frames, ack each one. A frame with a
    // newer generation is applied (region write + ack); any other valid
    // frame re-acks the currently applied state, which makes verifier
    // retransmits idempotent.
    fleet_->DrainFrames(
        i, Channel::kConfig, &agent.config_rx_offset,
        [&](std::string_view frame) {
          const uint8_t* p = reinterpret_cast<const uint8_t*>(frame.data());
          const uint32_t push_id = LoadLe32(p + 1);
          const uint32_t generation = LoadLe32(p + 5);
          if (generation > agent.applied_generation || !agent.has_applied) {
            const std::vector<uint8_t> region =
                ConfigRegionImage(generation, DataOf(frame));
            node.platform().bus().HostWriteBytes(kNodeConfigRegionAddr,
                                                 region);
            agent.applied_generation = generation;
            agent.applied_push_id = push_id;
            agent.applied_digest = Sha256Hash(region);
            agent.has_applied = true;
          }
          fleet_->SendToVerifier(
              i, EncodeConfigAck(agent.applied_push_id,
                                 agent.applied_generation,
                                 agent.applied_digest));
          return true;
        });

    // Health agent: one beacon every beacon_every_quanta quanta.
    if (policy_.beacon_every_quanta > 0 && --agent.beacon_countdown == 0) {
      agent.beacon_countdown = policy_.beacon_every_quanta;
      HealthBeacon beacon;
      beacon.cycle = node.platform().cpu().cycles();
      beacon.instructions = node.platform().cpu().stats().instructions;
      beacon.tx_bytes = node.tx_bytes();
      beacon.rx_bytes = node.rx_bytes();
      beacon.config_generation = agent.applied_generation;
      beacon.halted = node.platform().cpu().halted();
      fleet_->SendToVerifier(i, EncodeHealthFrame(beacon));
    }
  }
}

void FleetController::ProcessControlRx() {
  const bool push_active = active_push_id_ != 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    NodeHealth& health = health_[static_cast<size_t>(i)];
    PushState& push = push_[static_cast<size_t>(i)];
    fleet_->DrainFrames(
        i, Channel::kControl, &control_rx_offset_[static_cast<size_t>(i)],
        [&](std::string_view frame) {
          const uint8_t* p = reinterpret_cast<const uint8_t*>(frame.data());
          if (p[0] == kHealthFrameMarker) {
            health.beacon.cycle = LoadLe64(p + 1);
            health.beacon.instructions = LoadLe64(p + 9);
            health.beacon.tx_bytes = LoadLe64(p + 17);
            health.beacon.rx_bytes = LoadLe64(p + 25);
            health.beacon.config_generation = LoadLe32(p + 33);
            health.beacon.halted = p[37] != 0;
            health.beacon_seen_cycle = fleet_->now();
            return true;
          }
          // Config ack. Only an ack for the active push with the exact
          // region digest settles the node; a digest mismatch means the
          // region the node applied is not the one we pushed (corruption
          // that survived to the agent, or a hostile replay of an old ack)
          // — keep waiting, the retransmit path re-sends until the retry
          // budget runs out.
          const uint32_t push_id = LoadLe32(p + 1);
          const uint32_t generation = LoadLe32(p + 5);
          if (push_active && push.target && !push.acked &&
              push_id == active_push_id_ &&
              generation == config_generation_) {
            const bool match =
                std::equal(active_digest_.begin(), active_digest_.end(), p + 9);
            if (match) {
              push.acked = true;
              health.config_generation = generation;
            }
            const char* event =
                match ? "config-ack node=" : "config-ack DIGEST MISMATCH node=";
            Log(event + std::to_string(i) +
                " gen=" + std::to_string(generation));
          }
          return true;
        });
  }

  // Retransmit pass for the active push (stop-and-wait per node).
  if (push_active) {
    const uint64_t now = fleet_->now();
    for (int i = 0; i < fleet_->num_nodes(); ++i) {
      PushState& push = push_[static_cast<size_t>(i)];
      if (!push.target || push.acked || now < push.deadline ||
          push.retries >= kConfigPushMaxRetries) {
        continue;
      }
      ++push.retries;
      push.deadline = now + kConfigPushTimeoutCycles;
      fleet_->SendToNode(i, EncodeConfigFrame(active_push_id_,
                                              config_generation_,
                                              active_blob_));
      Log("config-resend node=" + std::to_string(i) +
          " try=" + std::to_string(push.retries));
    }
  }
}

Status FleetController::EndRound(const std::vector<int>& subset,
                                 const char* phase, const std::string& round) {
  int newly_quarantined = 0;
  for (int node : subset) {
    NodeHealth& health = health_[static_cast<size_t>(node)];
    const AttestNodeState state = attestor_.state(node);
    if (state == AttestNodeState::kVerified) {
      health.roster = RosterState::kAdmitted;
      health.reason = QuarantineReason::kNone;
      health.last_verified_cycle = attestor_.last_verified_cycle(node);
    } else if (state == AttestNodeState::kQuarantined) {
      if (health.roster != RosterState::kQuarantined) {
        ++newly_quarantined;
      }
      health.roster = RosterState::kQuarantined;
      health.reason = attestor_.quarantine_reason(node);
      Log("demoted node=" + std::to_string(node) +
          " reason=" + QuarantineReasonName(health.reason));
    }
  }
  EmitEpoch(phase);
  if (!policy_.halt_on_quarantine || newly_quarantined == 0) {
    return OkStatus();
  }
  return FailedPrecondition("halt-on-quarantine: " + round + " quarantined " +
                            std::to_string(newly_quarantined) + " node(s)");
}

std::vector<int> FleetController::NodesIn(RosterState roster) const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (health_[static_cast<size_t>(i)].roster == roster) {
      out.push_back(i);
    }
  }
  return out;
}

Status FleetController::RunAdmission() {
  Log("admission begin nodes=" + std::to_string(fleet_->num_nodes()));
  attestor_.Begin();
  if (!PumpUntil([&] { return attestor_.Done(); })) {
    return Internal("admission round did not resolve within the phase budget");
  }
  std::vector<int> all(static_cast<size_t>(fleet_->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  return EndRound(all, "admission", "admission");
}

Status FleetController::RunReattestEpoch() {
  RunIdle(policy_.epoch_idle_quanta);
  const std::vector<int> roster = Admitted();
  if (roster.empty()) {
    return FailedPrecondition("re-attestation with an empty roster");
  }
  ++epochs_;
  Log("reattest epoch=" + std::to_string(epochs_) +
      " roster=" + std::to_string(roster.size()));
  attestor_.Begin(roster);
  if (!PumpUntil([&] { return attestor_.Done(roster); })) {
    return Internal("re-attestation epoch did not resolve within the budget");
  }
  return EndRound(roster, "reattest", "epoch " + std::to_string(epochs_));
}

Status FleetController::RunUpdate(
    std::vector<uint8_t> container, int canary_pct,
    const std::function<void(const UpdateCampaign&)>& after_quantum) {
  UpdateCampaignConfig config;
  config.canary_pct = canary_pct;
  config.halt_on_quarantine = policy_.halt_on_quarantine;
  UpdateCampaign& campaign = campaigns_.emplace_back(
      fleet_, &attestor_, std::move(container), config);
  const std::string index = std::to_string(campaigns_.size() - 1);
  const std::vector<int> roster = Admitted();  // The campaign's targets.
  TL_RETURN_IF_ERROR(campaign.Start());
  Log("update campaign=" + index +
      " version=" + std::to_string(campaign.fw_version()));
  for (uint64_t i = 0; i < policy_.phase_quanta && !campaign.Done(); ++i) {
    Pump(&campaign);
    if (after_quantum) {
      after_quantum(campaign);
    }
  }
  if (!campaign.Done()) {
    return Internal("update campaign did not finish within the phase budget");
  }
  TL_RETURN_IF_ERROR(EndRound(roster, "update", "update campaign " + index));
  if (!campaign.Succeeded()) {
    return FailedPrecondition(
        "update campaign " + index + " aborted: " +
        std::to_string(campaign.CountInState(UpdateNodeState::kRejected)) +
        " node(s) rejected the image");
  }
  return OkStatus();
}

Status FleetController::PushConfig(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  const std::string blob = EncodeConfigBlob(entries);
  if (blob.size() > kMaxConfigBlobBytes) {
    return InvalidArgument("config blob exceeds the node region (" +
                           std::to_string(blob.size()) + " > " +
                           std::to_string(kMaxConfigBlobBytes) + " bytes)");
  }
  const std::vector<int> roster = Admitted();
  if (roster.empty()) {
    return FailedPrecondition("config push with an empty roster");
  }
  ++config_generation_;
  active_push_id_ = static_cast<uint32_t>(DeriveDeviceSeed(
      fleet_->config().seed ^ kConfigSalt, config_generation_));
  if (active_push_id_ == 0) {
    active_push_id_ = 1;  // 0 means "no active push".
  }
  active_blob_ = blob;
  active_digest_ = ConfigRegionDigest(config_generation_, blob);
  char event[96];
  std::snprintf(event, sizeof(event),
                "config-push gen=%u id=%08x entries=%zu bytes=%zu targets=%zu",
                config_generation_, active_push_id_, entries.size(),
                blob.size(), roster.size());
  Log(event);
  std::fill(push_.begin(), push_.end(), PushState{});
  for (int node : roster) {
    PushState& push = push_[static_cast<size_t>(node)];
    push.target = true;
    push.deadline = fleet_->now() + kConfigPushTimeoutCycles;
    fleet_->SendToNode(node, EncodeConfigFrame(active_push_id_,
                                               config_generation_,
                                               active_blob_));
  }
  auto settled = [&] {
    for (int node : roster) {
      const PushState& push = push_[static_cast<size_t>(node)];
      if (!push.acked && push.retries < kConfigPushMaxRetries) {
        return false;
      }
    }
    return true;
  };
  const bool in_budget = PumpUntil(settled);
  std::vector<int> failed;
  for (int node : roster) {
    if (!push_[static_cast<size_t>(node)].acked) {
      failed.push_back(node);
    }
  }
  active_push_id_ = 0;  // Push transport phase over; stop retransmits.
  if (!in_budget || !failed.empty()) {
    EmitEpoch("config-push");
    std::string detail = in_budget ? "retries exhausted for node(s)"
                                   : "push did not settle in budget; node(s)";
    for (int node : failed) {
      detail += ' ';
      detail += std::to_string(node);
    }
    return Internal("config push failed: " + detail);
  }
  // Re-measure: the acks pinned the config content; a re-attestation round
  // over the pushed nodes pins the code that consumes it.
  attestor_.Begin(roster);
  if (!PumpUntil([&] { return attestor_.Done(roster); })) {
    return Internal("post-push re-attestation did not resolve in budget");
  }
  return EndRound(roster, "config-push", "post-push re-attestation");
}

Status FleetController::ScaleUp(int count) {
  if (count <= 0) {
    return InvalidArgument("scale-up count must be positive");
  }
  const std::vector<int> sources = Admitted();
  if (sources.empty()) {
    return FailedPrecondition("scale-up with an empty roster");
  }
  std::vector<int> new_ids;
  new_ids.reserve(static_cast<size_t>(count));
  for (int k = 0; k < count; ++k) {
    const int src =
        sources[static_cast<size_t>(scale_up_round_robin_++) %
                sources.size()];
    // Everything that can reject the source runs before AddNode, so a
    // failure leaves the fleet and the per-node vectors below in step.
    FleetNode& source = fleet_->node(src);
    auto sites = LocateIdentitySites(source, attestor_.provision(src));
    if (!sites.ok()) {
      return sites.status();
    }
    SnapshotSaveOptions save_options;
    save_options.include_digest = false;  // In-memory hop; CRCs cover it.
    auto snapshot = SavePlatform(source.platform(), save_options);
    if (!snapshot.ok()) {
      return snapshot.status();
    }
    source.platform().ReleaseThreadAffinity();
    const int id = fleet_->AddNode();
    if (id < 0) {
      return FailedPrecondition(
          "scale-up requires a star topology with free port space");
    }
    // The buffer never left memory, so the copy skips the CRCs.
    auto provision = CloneNode(*snapshot, /*verify_checksums=*/false,
                               attestor_.provision(src), *sites,
                               fleet_->config().seed, fleet_->node(id));
    if (!provision.ok()) {
      return provision.status();
    }
    const int attestor_id = attestor_.AddNode(std::move(*provision));
    if (attestor_id != id) {
      return Internal("attestor/fleet node id mismatch during scale-up");
    }
    health_.emplace_back();
    health_.back().cloned_from = src;
    agents_.emplace_back();
    // The clone starts with a copy of the source's applied config region;
    // its agent state must agree or the next push would mis-ack.
    agents_.back() = agents_[static_cast<size_t>(src)];
    agents_.back().config_rx_offset = 0;
    agents_.back().beacon_countdown = 1;
    control_rx_offset_.push_back(0);
    push_.emplace_back();
    new_ids.push_back(id);
    Log("clone node=" + std::to_string(id) + " from=" + std::to_string(src));
  }
  attestor_.Begin(new_ids);
  if (!PumpUntil([&] { return attestor_.Done(new_ids); })) {
    return Internal("scale-up re-attestation did not resolve in budget");
  }
  return EndRound(new_ids, "scale-up", "scale-up admission");
}

void FleetController::Drain() {
  PumpUntil([&] { return fleet_->fabric().in_flight() == 0; });
  Log("drain in-flight=" + std::to_string(fleet_->fabric().in_flight()));
  EmitEpoch("drain");
}

void FleetController::EmitEpoch(const char* phase) {
  std::string json = "{\"phase\":\"";
  json += phase;
  json += '"';
  AppendField(&json, "epoch", static_cast<uint64_t>(epochs_));
  AppendField(&json, "cycle", fleet_->now());
  AppendField(&json, "quanta", quanta_run_);
  AppendField(&json, "nodes", static_cast<uint64_t>(num_nodes()));
  AppendField(&json, "admitted", Admitted().size());
  AppendField(&json, "quarantined", Quarantined().size());
  AppendField(&json, "config_generation", config_generation_);
  json += ",\"health\":[";
  for (int i = 0; i < num_nodes(); ++i) {
    const NodeHealth& health = health_[static_cast<size_t>(i)];
    json += i > 0 ? ",{\"node\":" : "{\"node\":";
    json += std::to_string(i);
    json += ",\"roster\":\"";
    json += RosterStateName(health.roster);
    json += "\",\"reason\":\"";
    json += QuarantineReasonName(health.reason);
    json += '"';
    AppendField(&json, "last_verified_cycle", health.last_verified_cycle);
    AppendField(&json, "beacon_cycle", health.beacon.cycle);
    AppendField(&json, "beacon_instructions", health.beacon.instructions);
    AppendField(&json, "beacon_tx", health.beacon.tx_bytes);
    AppendField(&json, "beacon_rx", health.beacon.rx_bytes);
    AppendField(&json, "config_generation", health.config_generation);
    json += ",\"halted\":";
    json += health.beacon.halted ? "true" : "false";
    json += ",\"cloned_from\":";
    json += std::to_string(health.cloned_from);
    json += '}';
  }
  json += "]}";
  status_epochs_.push_back(std::move(json));
}

std::string FleetController::WatchSummary() const {
  uint64_t beacons_live = 0;
  for (const NodeHealth& health : health_) {
    if (health.beacon_seen_cycle > 0) {
      ++beacons_live;
    }
  }
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "fleetd @%llu epoch=%d nodes=%d admitted=%zu quarantined=%zu "
      "gen=%u beacons=%llu in-flight=%zu",
      static_cast<unsigned long long>(fleet_->now()), epochs_, num_nodes(),
      Admitted().size(), Quarantined().size(), config_generation_,
      static_cast<unsigned long long>(beacons_live),
      fleet_->fabric().in_flight());
  return buf;
}

}  // namespace trustlite
