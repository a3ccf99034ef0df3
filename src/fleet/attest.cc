// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/attest.h"

#include <cstdio>
#include <string_view>

#include "src/common/rng.h"
#include "src/services/attestation.h"

namespace trustlite {
namespace {

// Domain-separation salt for challenge nonces (distinct from key/tamper
// streams in provision.cc and the nodes' TRNG seeds).
constexpr uint64_t kChallengeSalt = 0x6368616C6C656E67ull;  // "challeng"

// Retired challenges kept per node for stale-report diagnostics (on top of
// the one live challenge). Evictions beyond the cap are counted and
// surfaced in the node's resolution line.
constexpr size_t kRetiredTrail = 4;

std::string RejectSummary(uint64_t mismatches, uint64_t stale_hits,
                          uint64_t noise_bytes, uint64_t retired_dropped) {
  if (mismatches == 0 && stale_hits == 0 && noise_bytes == 0 &&
      retired_dropped == 0) {
    return "";
  }
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                " mismatches=%llu stale=%llu noise=%llu retired-dropped=%llu",
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(stale_hits),
                static_cast<unsigned long long>(noise_bytes),
                static_cast<unsigned long long>(retired_dropped));
  return buf;
}

}  // namespace

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNone:
      return "none";
    case QuarantineReason::kTimeout:
      return "timeout";
    case QuarantineReason::kMismatch:
      return "mismatch";
    case QuarantineReason::kStaleReplay:
      return "stale";
  }
  return "?";
}

FleetAttestor::FleetAttestor(Fleet* fleet,
                             std::vector<NodeProvision> provisions,
                             const AttestPolicy& policy)
    : fleet_(fleet), provisions_(std::move(provisions)), policy_(policy) {
  nodes_.resize(provisions_.size());
}

uint32_t FleetAttestor::ChallengeFor(int node, int issue_index) const {
  // `issue_index` counts every challenge ever issued to the node — across
  // retries AND re-attestation rounds — so nonces are never reissued and a
  // captured report can never be fresh twice.
  const uint64_t lane =
      (static_cast<uint64_t>(node) << 8) | static_cast<uint64_t>(issue_index);
  return static_cast<uint32_t>(DeriveDeviceSeed(
      fleet_->config().seed ^ kChallengeSalt, static_cast<uint32_t>(lane)));
}

void FleetAttestor::Log(int node, const std::string& event) {
  AppendTranscriptLine(&transcript_, fleet_->now(),
                       "node=" + std::to_string(node), event);
}

void FleetAttestor::LogReject(int node, const std::string& event) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  if (state.reject_logs < kAttestMaxRejectLogs) {
    ++state.reject_logs;
    Log(node, event);
  } else if (state.reject_logs == kAttestMaxRejectLogs) {
    ++state.reject_logs;
    Log(node, "reject-log cap reached; counting until resolution");
  }
}

void FleetAttestor::SendChallenge(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  const NodeProvision& provision = provisions_[static_cast<size_t>(node)];
  const uint32_t challenge = ChallengeFor(node, state.issued);
  ++state.issued;
  ++state.attempts;
  // Issuing a new challenge retires every earlier one: from here on only
  // the just-issued nonce can verify (the PR7 replay-window fix). Retired
  // digests stay behind as a bounded diagnostics trail so stale-report
  // replays are recognized; evictions are counted, not silent.
  state.expected.push_back(ExpectedAttestationReport(
      provision.key, challenge, provision.fw_code));
  while (state.expected.size() > kRetiredTrail + 1) {
    state.expected.erase(state.expected.begin());
    ++state.retired_dropped;
  }
  state.state = AttestNodeState::kAwaitingResponse;
  state.quarantine_reason = QuarantineReason::kNone;
  state.deadline = fleet_->now() + policy_.timeout_cycles;
  const bool routed = fleet_->SendToNode(
      node, EncodeAttestationRequest(provision.fw_id, challenge));
  char event[64];
  std::snprintf(event, sizeof(event), "challenge attempt=%d nonce=%08x%s",
                state.attempts, challenge, routed ? "" : " (lost)");
  Log(node, event);
}

void FleetAttestor::Begin() {
  ++rounds_;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    nodes_[static_cast<size_t>(i)].attempts = 0;  // Fresh round budget.
    SendChallenge(i);
  }
}

void FleetAttestor::Begin(const std::vector<int>& subset) {
  ++rounds_;
  for (int node : subset) {
    nodes_[static_cast<size_t>(node)].attempts = 0;
    SendChallenge(node);
  }
}

void FleetAttestor::PumpNode(int node) {
  NodeState& state = nodes_[static_cast<size_t>(node)];
  const uint64_t now = fleet_->now();

  if (state.state == AttestNodeState::kAwaitingResponse) {
    // Drain every decodable frame. Only a report for the LATEST outstanding
    // challenge verifies; reports for retired challenges are suspected
    // replays, anything else is mismatch or line noise. The scanner tells
    // us exactly how far the cursor may advance, so corrupted/reflected
    // garbage costs O(new bytes) and is reclaimed from the fleet.
    uint32_t status = 0;
    Sha256Digest report{};
    fleet_->DrainRx(
        node, Channel::kAttest, &state.rx_offset, &state.noise_bytes,
        [&](const std::string& rx, size_t offset, size_t* frame_start,
            size_t* next_offset) {
          return ScanAttestationResponse(rx, offset, frame_start,
                                         next_offset, &status, &report);
        },
        [&](std::string_view) {
          if (status != kAttestStatusOk) {
            // Error frames ride the same flood-control budget as rejected
            // reports: an adversary can mint 2-byte error frames even more
            // cheaply than forged 34-byte reports.
            ++state.mismatches;
            char event[48];
            std::snprintf(event, sizeof(event), "response status=%u", status);
            LogReject(node, event);
            return true;
          }
          const bool fresh =
              !state.expected.empty() && report == state.expected.back();
          bool stale = false;
          if (!fresh) {
            for (size_t k = 0; k + 1 < state.expected.size(); ++k) {
              if (report == state.expected[k]) {
                stale = true;
                break;
              }
            }
          }
          if (fresh || (stale && policy_.accept_stale_reports)) {
            state.state = AttestNodeState::kVerified;
            state.last_verified_cycle = now;
            std::string event = fresh ? "verified"
                                      : "verified (STALE REPORT "
                                        "honored: vulnerable mode)";
            event += RejectSummary(state.mismatches, state.stale_hits,
                                   state.noise_bytes, state.retired_dropped);
            Log(node, event);
            return false;
          }
          // Rejected report: count always, log up to the per-node cap, then
          // one explicit suppression line — never silent.
          if (stale) {
            ++state.stale_hits;
          } else {
            ++state.mismatches;
          }
          LogReject(node, stale ? "stale-report rejected (replay suspected)"
                                : "report-mismatch");
          return true;
        });
    if (state.state == AttestNodeState::kAwaitingResponse &&
        now >= state.deadline) {
      if (state.attempts >= kAttestMaxAttempts) {
        state.state = AttestNodeState::kQuarantined;
        // Cause classification, most-specific evidence first (see the enum
        // comment in attest.h): mismatching reports prove divergent
        // measurement; otherwise stale hits prove a replaying adversary;
        // otherwise nothing decodable ever arrived.
        state.quarantine_reason =
            state.mismatches > 0 ? QuarantineReason::kMismatch
            : state.stale_hits > 0 ? QuarantineReason::kStaleReplay
                                   : QuarantineReason::kTimeout;
        Log(node, std::string("quarantined reason=") +
                      QuarantineReasonName(state.quarantine_reason) +
                      RejectSummary(state.mismatches, state.stale_hits,
                                    state.noise_bytes,
                                    state.retired_dropped));
      } else {
        state.state = AttestNodeState::kBackoff;
        state.resume =
            now + (policy_.backoff_base_cycles << (state.attempts - 1));
        char event[48];
        std::snprintf(event, sizeof(event), "timeout attempt=%d",
                      state.attempts);
        Log(node, event);
      }
    }
  }

  if (state.state == AttestNodeState::kBackoff && now >= state.resume) {
    SendChallenge(node);
  }
}

int FleetAttestor::AddNode(NodeProvision provision) {
  provisions_.push_back(std::move(provision));
  nodes_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

void FleetAttestor::OnQuantumBoundary() {
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    PumpNode(i);
  }
}

bool FleetAttestor::Done() const {
  for (const NodeState& state : nodes_) {
    if (state.state != AttestNodeState::kVerified &&
        state.state != AttestNodeState::kQuarantined) {
      return false;
    }
  }
  return true;
}

bool FleetAttestor::Done(const std::vector<int>& subset) const {
  for (int node : subset) {
    if (state(node) != AttestNodeState::kVerified &&
        state(node) != AttestNodeState::kQuarantined) {
      return false;
    }
  }
  return true;
}

std::vector<int> FleetAttestor::NodesIn(AttestNodeState want) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[static_cast<size_t>(i)].state == want) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace trustlite
