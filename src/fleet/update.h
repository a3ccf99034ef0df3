// Copyright 2026 The TrustLite Reproduction Authors.
//
// Staged fleet firmware rollout (DESIGN.md §16): a host-side campaign
// orchestrator that drives the src/update/ trial/commit/rollback model
// across a fleet over the existing link fabric.
//
// Rollout ladder:
//   canary transfer -> canary re-attest -> canary commit ->
//   fleet transfer  -> fleet re-attest  -> fleet commit  -> done
//
// A deterministic canary subset (--canary-pct of the verified population)
// receives the update first; only after every canary re-attests against
// the NEW golden measurement does its counter commit and the rest of the
// fleet follow. A quarantine during re-attestation (with halt_on_quarantine)
// aborts the campaign: every applied-but-uncommitted node rolls back to its
// old image and old golden measurement; the quarantined node itself is NOT
// rolled back — it is compromised, and unwinding its state would only hide
// the evidence.
//
// Transfer transport: per-node signed .tlfw containers move as CRC-framed
// chunks (kUpdateFrameMarker frames) over the verifier links, stop-and-wait
// with cycle-deadline retransmit. Frames share the links with attestation
// traffic, so latency, loss and the PR7 hostile modes all apply; the
// campaign-id field defeats cross-campaign frame replay, and the final
// container parse + signature check rejects anything corruption smuggled
// through.
//
// Determinism: the campaign acts only at quantum boundaries, on fleet-owned
// streams, in node-id order — its transcript is bit-identical across host
// thread counts, like the attestor's.

#ifndef TRUSTLITE_SRC_FLEET_UPDATE_H_
#define TRUSTLITE_SRC_FLEET_UPDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/attest.h"
#include "src/fleet/fleet.h"
#include "src/update/apply.h"
#include "src/update/fw_container.h"

namespace trustlite {

// Transfer frame (0xD5, src/fleet/frame.h): marker, campaign id, chunk
// offset, data length, data, CRC-32 over everything before the CRC.
std::string EncodeUpdateFrame(uint32_t campaign_id, uint32_t offset,
                              const uint8_t* data, size_t len);

// Retransmits of one chunk before the node is failed.
inline constexpr int kUpdateMaxChunkRetries = 25;

struct UpdateCampaignConfig {
  // Percent of the eligible (verified) population updated first. 100 makes
  // everyone a canary: single-stage rollout.
  int canary_pct = 10;
  // Abort + roll back uncommitted nodes when a re-attestation quarantines.
  // When false, quarantined nodes are skipped and the rollout continues.
  bool halt_on_quarantine = true;
  // Transfer granule per frame.
  uint32_t chunk_bytes = 512;
  // Retransmit deadline per chunk.
  uint64_t chunk_timeout_cycles = 200'000;
};

enum class UpdatePhase {
  kIdle,            // Constructed, Start() not yet called.
  kCanaryTransfer,
  kCanaryVerify,
  kFleetTransfer,
  kFleetVerify,
  kDone,
  kAborted,
};
const char* UpdatePhaseName(UpdatePhase phase);

enum class UpdateNodeState {
  kIneligible,    // Not verified when the campaign started.
  kPending,       // Eligible, waiting for its wave.
  kTransferring,  // Chunks in flight.
  kApplied,       // Trial-applied; attesting against the new golden.
  kCommitted,     // Anti-rollback counter latched; update final.
  kRolledBack,    // Unwound by an abort before commit.
  kRejected,      // Apply refused (anti-rollback) or transfer failed.
  kQuarantined,   // Failed re-attestation after apply.
};

class UpdateCampaign {
 public:
  // `container` is a packed (signed or unsigned) .tlfw; the campaign
  // re-signs it per node with the node's derived update key. The attestor
  // supplies eligibility, per-node identity and golden-measurement custody.
  UpdateCampaign(Fleet* fleet, FleetAttestor* attestor,
                 std::vector<uint8_t> container,
                 const UpdateCampaignConfig& config);

  // Validates the container and opens the canary wave. Fails closed on a
  // malformed container or an empty eligible set.
  Status Start();

  // Pumps transfer/verify/commit state machines; call after each
  // RunQuantum. No-op once Done().
  void OnQuantumBoundary();

  bool Done() const {
    return phase_ == UpdatePhase::kDone || phase_ == UpdatePhase::kAborted;
  }
  // A completed campaign: done, nothing aborted it.
  bool Succeeded() const { return phase_ == UpdatePhase::kDone; }

  UpdatePhase phase() const { return phase_; }
  uint32_t fw_version() const { return image_.fw_version; }
  uint32_t campaign_id() const { return campaign_id_; }
  const std::vector<int>& canaries() const { return canaries_; }
  UpdateNodeState state(int node) const {
    return nodes_[static_cast<size_t>(node)].state;
  }
  int CountInState(UpdateNodeState state) const;

  // Deterministic event log, same "@cycle ..." shape as the attestor's.
  const std::string& transcript() const { return transcript_; }

 private:
  struct NodeState {
    UpdateNodeState state = UpdateNodeState::kIneligible;
    std::vector<uint8_t> container;   // Signed for this node's update key.
    size_t acked = 0;                 // Container bytes staged at the node.
    size_t rx_offset = 0;             // Scan cursor into the kUpdate channel.
    uint64_t deadline = 0;            // Retransmit deadline for the chunk.
    int retries = 0;
    // Captured at apply time for abort rollback.
    std::vector<uint8_t> old_window;
    std::vector<uint8_t> old_golden;
    FirmwareUpdateTarget target;
  };

  void Log(const std::string& event);
  void LogNode(int node, const std::string& event);
  Status OpenWave(const std::vector<int>& wave, UpdatePhase transfer_phase);
  void SendChunk(int node);
  void PumpTransfer(int node);
  void ApplyAtNode(int node);
  void FinishTransferPhase();
  void FinishVerifyPhase();
  void CommitWave();
  void AbortAndRollback(const std::string& reason);
  std::vector<int> WaveNodes(UpdateNodeState in_state) const;

  Fleet* fleet_;
  FleetAttestor* attestor_;
  std::vector<uint8_t> base_container_;
  UpdateCampaignConfig config_;
  FirmwareImage image_;
  uint32_t campaign_id_ = 0;
  UpdatePhase phase_ = UpdatePhase::kIdle;
  std::vector<NodeState> nodes_;
  std::vector<int> canaries_;
  std::vector<int> wave_;  // Nodes in the active transfer/verify wave.
  std::string transcript_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_UPDATE_H_
