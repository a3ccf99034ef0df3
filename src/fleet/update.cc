// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/update.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/mem/layout.h"

namespace trustlite {
namespace {

// Domain-separation salt for the canary sample and campaign id (unrelated
// to the key/tamper/challenge streams).
constexpr uint64_t kCampaignSalt = 0x63616D706169676Eull;  // "campaign"

}  // namespace

std::string EncodeUpdateFrame(uint32_t campaign_id, uint32_t offset,
                              const uint8_t* data, size_t len) {
  return EncodeDataFrame(kUpdateFrameMarker, campaign_id, offset, data, len);
}

const char* UpdatePhaseName(UpdatePhase phase) {
  switch (phase) {
    case UpdatePhase::kIdle:
      return "idle";
    case UpdatePhase::kCanaryTransfer:
      return "canary-transfer";
    case UpdatePhase::kCanaryVerify:
      return "canary-verify";
    case UpdatePhase::kFleetTransfer:
      return "fleet-transfer";
    case UpdatePhase::kFleetVerify:
      return "fleet-verify";
    case UpdatePhase::kDone:
      return "done";
    case UpdatePhase::kAborted:
      return "aborted";
  }
  return "?";
}

UpdateCampaign::UpdateCampaign(Fleet* fleet, FleetAttestor* attestor,
                               std::vector<uint8_t> container,
                               const UpdateCampaignConfig& config)
    : fleet_(fleet),
      attestor_(attestor),
      base_container_(std::move(container)),
      config_(config) {
  nodes_.resize(static_cast<size_t>(fleet->num_nodes()));
}

void UpdateCampaign::Log(const std::string& event) {
  AppendTranscriptLine(&transcript_, fleet_->now(),
                       "campaign v" + std::to_string(image_.fw_version), event);
}

void UpdateCampaign::LogNode(int node, const std::string& event) {
  AppendTranscriptLine(&transcript_, fleet_->now(),
                       "node=" + std::to_string(node), event);
}

Status UpdateCampaign::Start() {
  if (phase_ != UpdatePhase::kIdle) {
    return FailedPrecondition("update campaign already started");
  }
  if (config_.canary_pct < 1 || config_.canary_pct > 100) {
    return InvalidArgument("canary_pct must be in [1, 100]");
  }
  if (config_.chunk_bytes == 0 || config_.chunk_bytes > kMaxUpdateFrameData) {
    return InvalidArgument("chunk_bytes must be in [1, " +
                           std::to_string(kMaxUpdateFrameData) + "]");
  }
  Result<FirmwareImage> image = ParseFirmware(base_container_);
  if (!image.ok()) {
    return image.status();
  }
  image_ = std::move(*image);
  campaign_id_ = static_cast<uint32_t>(DeriveDeviceSeed(
      fleet_->config().seed ^ kCampaignSalt, image_.fw_version));

  const std::vector<int> eligible = attestor_->Verified();
  if (eligible.empty()) {
    return FailedPrecondition("update campaign: no verified nodes");
  }
  for (int node : eligible) {
    NodeState& ns = nodes_[static_cast<size_t>(node)];
    const NodeProvision& p = attestor_->provision(node);
    if (image_.payload.size() > p.fw_payload_capacity) {
      return InvalidArgument(
          "update campaign: payload (" +
          std::to_string(image_.payload.size()) +
          " bytes) exceeds the provisioned window capacity (" +
          std::to_string(p.fw_payload_capacity) + ")");
    }
    // Each node gets the base container re-signed under its own derived
    // update key: possession of one node's container proves nothing about
    // any other node.
    Result<std::vector<uint8_t>> signed_container =
        SignFirmware(base_container_, DeriveUpdateKey(p.key));
    if (!signed_container.ok()) {
      return signed_container.status();
    }
    ns.container = std::move(*signed_container);
    ns.target.fw_id = p.fw_id;
    ns.target.table_addr = kTrustletTableBase;
    ns.target.code_addr = p.fw_code_addr;
    ns.target.code_size = static_cast<uint32_t>(p.fw_code.size());
    ns.target.payload_offset = p.fw_payload_offset;
    ns.target.payload_capacity = p.fw_payload_capacity;
    ns.state = UpdateNodeState::kPending;
  }

  // Deterministic canary sample: distinct picks from a campaign-salted
  // stream, independent of host threading (TamperPlan idiom).
  const int want = std::max(
      1, (config_.canary_pct * static_cast<int>(eligible.size()) + 99) / 100);
  std::set<int> chosen;
  Xoshiro256 rng(DeriveDeviceSeed(fleet_->config().seed ^ kCampaignSalt,
                                  image_.fw_version ^ 0x9E37u));
  while (static_cast<int>(chosen.size()) < want) {
    chosen.insert(eligible[static_cast<size_t>(
        rng.NextBelow(static_cast<uint64_t>(eligible.size())))]);
  }
  canaries_.assign(chosen.begin(), chosen.end());

  char line[96];
  std::snprintf(line, sizeof(line),
                "start id=%08x eligible=%d canaries=%d (%d%%) payload=%u",
                campaign_id_, static_cast<int>(eligible.size()),
                static_cast<int>(canaries_.size()), config_.canary_pct,
                static_cast<uint32_t>(image_.payload.size()));
  Log(line);
  return OpenWave(canaries_, UpdatePhase::kCanaryTransfer);
}

Status UpdateCampaign::OpenWave(const std::vector<int>& wave,
                                UpdatePhase transfer_phase) {
  wave_ = wave;
  phase_ = transfer_phase;
  Log(std::string(UpdatePhaseName(transfer_phase)) + " wave=" +
      std::to_string(wave_.size()) + " nodes");
  for (int node : wave_) {
    NodeState& ns = nodes_[static_cast<size_t>(node)];
    ns.state = UpdateNodeState::kTransferring;
    ns.acked = 0;
    ns.retries = 0;
    SendChunk(node);
  }
  return OkStatus();
}

void UpdateCampaign::SendChunk(int node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  const size_t n =
      std::min<size_t>(config_.chunk_bytes, ns.container.size() - ns.acked);
  fleet_->SendToNode(
      node, EncodeUpdateFrame(campaign_id_, static_cast<uint32_t>(ns.acked),
                              ns.container.data() + ns.acked, n));
  ns.deadline = fleet_->now() + config_.chunk_timeout_cycles;
}

void UpdateCampaign::PumpTransfer(int node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  fleet_->DrainFrames(
      node, Channel::kUpdate, &ns.rx_offset, [&](std::string_view frame) {
        const uint8_t* p = reinterpret_cast<const uint8_t*>(frame.data());
        const uint32_t cid = LoadLe32(p + 1);
        const uint32_t chunk_offset = LoadLe32(p + 5);
        const size_t len = DataOf(frame).size();
        // Stop-and-wait acceptance: only the exact next chunk of THIS
        // campaign advances the stage. Duplicates (retransmits, link-level
        // replays) and cross-campaign frames fall through as no-ops — the
        // campaign-id filter is what makes a replayed chunk from an earlier
        // rollout inert.
        if (cid != campaign_id_ || chunk_offset != ns.acked ||
            ns.acked + len > ns.container.size()) {
          return true;
        }
        ns.acked += len;
        if (ns.acked >= ns.container.size()) {
          ApplyAtNode(node);
        } else {
          SendChunk(node);
        }
        return ns.state == UpdateNodeState::kTransferring;
      });
  if (ns.state == UpdateNodeState::kTransferring &&
      fleet_->now() >= ns.deadline) {
    if (++ns.retries > kUpdateMaxChunkRetries) {
      ns.state = UpdateNodeState::kRejected;
      char line[80];
      std::snprintf(line, sizeof(line),
                    "transfer failed at offset %zu after %d retries",
                    ns.acked, ns.retries - 1);
      LogNode(node, line);
    } else {
      SendChunk(node);  // Retransmit the outstanding chunk.
    }
  }
}

void UpdateCampaign::ApplyAtNode(int node) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  const NodeProvision& p = attestor_->provision(node);
  // Apply the bytes that actually crossed the link. Every chunk was
  // CRC-gated on arrival, but the container's own framing + signature is
  // the authoritative fail-closed check.
  Result<FirmwareImage> image = ParseFirmware(ns.container);
  if (!image.ok()) {
    ns.state = UpdateNodeState::kRejected;
    LogNode(node, "container rejected: " + image.status().message());
    return;
  }
  ns.old_golden = attestor_->golden_code(node);
  Result<FirmwareUpdateReport> report = ApplyFirmwareUpdate(
      &fleet_->node(node).platform().bus(), p.key, *image, ns.target);
  if (!report.ok()) {
    ns.state = UpdateNodeState::kRejected;
    LogNode(node, "apply rejected: " + report.status().message());
    return;
  }
  ns.old_window = std::move(report->old_window);
  ns.state = UpdateNodeState::kApplied;
  attestor_->SetGoldenCode(node, report->new_code);
  char line[96];
  std::snprintf(line, sizeof(line), "applied v%u->v%u measurement=%s",
                report->old_version, report->new_version,
                HexEncode(report->new_measurement.data(), 8).c_str());
  LogNode(node, line);
}

std::vector<int> UpdateCampaign::WaveNodes(UpdateNodeState in_state) const {
  std::vector<int> out;
  for (int node : wave_) {
    if (nodes_[static_cast<size_t>(node)].state == in_state) {
      out.push_back(node);
    }
  }
  return out;
}

void UpdateCampaign::FinishTransferPhase() {
  // Any rejection — anti-rollback, bad container, dead link — stops the
  // rollout before more of the fleet is touched.
  const std::vector<int> rejected = WaveNodes(UpdateNodeState::kRejected);
  if (!rejected.empty()) {
    AbortAndRollback("apply rejected on " + std::to_string(rejected.size()) +
                     " node(s)");
    return;
  }
  const std::vector<int> applied = WaveNodes(UpdateNodeState::kApplied);
  phase_ = phase_ == UpdatePhase::kCanaryTransfer ? UpdatePhase::kCanaryVerify
                                                  : UpdatePhase::kFleetVerify;
  Log(std::string(UpdatePhaseName(phase_)) + " re-attesting " +
      std::to_string(applied.size()) + " nodes against new golden");
  attestor_->Begin(applied);
}

void UpdateCampaign::CommitWave() {
  for (int node : wave_) {
    NodeState& ns = nodes_[static_cast<size_t>(node)];
    if (ns.state != UpdateNodeState::kApplied) {
      continue;
    }
    const Status committed = CommitFirmwareUpdate(
        &fleet_->node(node).platform().bus(), image_.fw_version);
    if (!committed.ok()) {
      ns.state = UpdateNodeState::kRejected;
      LogNode(node, "commit failed: " + committed.message());
      continue;
    }
    ns.state = UpdateNodeState::kCommitted;
    LogNode(node, "committed v" + std::to_string(image_.fw_version));
  }
}

void UpdateCampaign::FinishVerifyPhase() {
  // Fold the re-attestation verdicts into campaign state.
  std::vector<int> quarantined;
  for (int node : wave_) {
    NodeState& ns = nodes_[static_cast<size_t>(node)];
    if (ns.state == UpdateNodeState::kApplied &&
        attestor_->state(node) == AttestNodeState::kQuarantined) {
      ns.state = UpdateNodeState::kQuarantined;
      LogNode(node, "quarantined during post-update re-attestation");
      quarantined.push_back(node);
    }
  }
  if (!quarantined.empty() && config_.halt_on_quarantine) {
    AbortAndRollback(std::to_string(quarantined.size()) +
                     " node(s) quarantined in " + UpdatePhaseName(phase_));
    return;
  }
  CommitWave();
  if (phase_ == UpdatePhase::kCanaryVerify) {
    std::vector<int> rest;
    for (int node = 0; node < static_cast<int>(nodes_.size()); ++node) {
      if (nodes_[static_cast<size_t>(node)].state ==
          UpdateNodeState::kPending) {
        rest.push_back(node);
      }
    }
    if (!rest.empty()) {
      OpenWave(rest, UpdatePhase::kFleetTransfer);
      return;
    }
  }
  phase_ = UpdatePhase::kDone;
  char line[96];
  std::snprintf(line, sizeof(line),
                "complete committed=%d quarantined=%d",
                CountInState(UpdateNodeState::kCommitted),
                CountInState(UpdateNodeState::kQuarantined));
  Log(line);
}

void UpdateCampaign::AbortAndRollback(const std::string& reason) {
  // Unwind every applied-but-uncommitted node — committed counters are
  // monotonic and CANNOT unwind, which is exactly why commit waits for
  // re-attestation. Quarantined nodes keep their state as evidence.
  for (int node = 0; node < static_cast<int>(nodes_.size()); ++node) {
    NodeState& ns = nodes_[static_cast<size_t>(node)];
    if (ns.state != UpdateNodeState::kApplied) {
      continue;
    }
    Result<Sha256Digest> restored = RollbackFirmwareUpdate(
        &fleet_->node(node).platform().bus(), ns.target, ns.old_window);
    if (restored.ok()) {
      attestor_->SetGoldenCode(node, ns.old_golden);
      ns.state = UpdateNodeState::kRolledBack;
      LogNode(node, "rolled back to pre-update image");
    } else {
      ns.state = UpdateNodeState::kRejected;
      LogNode(node, "rollback failed: " + restored.status().message());
    }
  }
  phase_ = UpdatePhase::kAborted;
  Log("aborted: " + reason);
}

void UpdateCampaign::OnQuantumBoundary() {
  if (phase_ == UpdatePhase::kIdle || Done()) {
    return;
  }
  if (phase_ == UpdatePhase::kCanaryTransfer ||
      phase_ == UpdatePhase::kFleetTransfer) {
    bool transferring = false;
    for (int node : wave_) {
      if (nodes_[static_cast<size_t>(node)].state ==
          UpdateNodeState::kTransferring) {
        PumpTransfer(node);
      }
      transferring |= nodes_[static_cast<size_t>(node)].state ==
                      UpdateNodeState::kTransferring;
    }
    if (!transferring) {
      FinishTransferPhase();
    }
    return;
  }
  // Verify phases: the campaign owns the attestor pump while a subset
  // round is in flight.
  attestor_->OnQuantumBoundary();
  if (attestor_->Done()) {
    FinishVerifyPhase();
  }
}

int UpdateCampaign::CountInState(UpdateNodeState state) const {
  int count = 0;
  for (const NodeState& ns : nodes_) {
    count += ns.state == state ? 1 : 0;
  }
  return count;
}

}  // namespace trustlite
