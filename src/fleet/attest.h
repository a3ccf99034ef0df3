// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet-wide remote attestation (DESIGN.md §13): a host-side verifier that
// drives the UART attestation protocol of src/services/attestation.h
// against every node of a fleet concurrently. Per-node state machines
// handle timeout, bounded retry with exponential backoff, and quarantine —
// the population-scale version of the paper's remote reporting story
// (Secs. 1/2.3): a remote party validating a cryptographic hash of each
// device's program code.
//
// Robustness policy (PR7 hostile-link hardening). The verifier assumes an
// active adversary on the wire, not just a lossy one. What counts as what:
//   * Line noise: bytes that never frame as a response (corrupted frames,
//     reflected challenge echoes, neighbour chatter on ring fleets). The
//     scanner skips them in O(new bytes) and reclaims the stream; noise is
//     counted, never fatal.
//   * Attack evidence: a decoded report matching a *retired* challenge (a
//     nonce this verifier superseded by a re-challenge) is a suspected
//     stale-report replay — rejected and counted separately from plain
//     mismatches. Only the latest outstanding challenge can verify; its
//     report is unforgeable without the device key and unreplayable
//     because every challenge nonce is fresh across attempts AND rounds.
//   * Failures: only *timeouts* consume attempts; mismatching or stale
//     reports merely keep the node awaiting. A healthy node verifies as
//     soon as one fresh correct report arrives; a tampered node — whose
//     reports never match the golden measurement — exhausts its attempts
//     and is quarantined.
// Flood control: the per-node expected set is bounded (retired nonces kept
// only as a short diagnostics trail), reject logging is capped per node
// with an explicit suppression line, and every suppressed/dropped count is
// surfaced in the node's resolution line — no silent truncation.
//
// Determinism. The attestor acts only at quantum boundaries and only on
// fleet-owned state (kAttest channels, SendToNode), in node-id order, so
// its transcript is bit-identical across host thread counts.

#ifndef TRUSTLITE_SRC_FLEET_ATTEST_H_
#define TRUSTLITE_SRC_FLEET_ATTEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"

namespace trustlite {

// Timeouts before quarantine.
inline constexpr int kAttestMaxAttempts = 4;
// Transcript flood control: per node, at most this many rejected-report
// lines (mismatch or stale) are logged verbatim; one explicit suppression
// line follows and further rejects are counted, with the totals surfaced in
// the node's resolution line.
inline constexpr int kAttestMaxRejectLogs = 8;

struct AttestPolicy {
  uint64_t timeout_cycles = 1'000'000;     // Challenge -> response deadline.
  uint64_t backoff_base_cycles = 100'000;  // Doubles per failed attempt.
  // PRE-PR7 VULNERABLE MODE — accept a report matching *any* challenge ever
  // issued to the node, including retired ones. A stale report captured
  // from an earlier attempt then verifies a since-tampered node. Exists
  // only so regression tests can demonstrate the replay-window bug against
  // the fixed default; leave false.
  bool accept_stale_reports = false;
};

enum class AttestNodeState {
  kIdle,              // Not yet challenged.
  kAwaitingResponse,  // Challenge in flight, deadline armed.
  kBackoff,           // Timed out; waiting to re-challenge.
  kVerified,          // Report matched the golden measurement.
  kQuarantined,       // Attempts exhausted without a matching report.
};

// Why a node was quarantined — a STABLE enum: values are part of the
// status-output contract (`tlfleetd --status-json`, docs/FLEET.md) and the
// quarantine transcript line; append new reasons at the end, never renumber.
// Classification at quarantine time, most-specific evidence first:
//   kMismatch    — at least one well-formed report arrived but matched no
//                  challenge ever issued: the node's measurement diverges
//                  from the golden code (tamper, failed update).
//   kStaleReplay — no mismatching report, but reports matching *retired*
//                  challenges were seen: an adversary is replaying captured
//                  frames while fresh reports never arrive.
//   kTimeout     — nothing decodable ever arrived: the node is unreachable
//                  (dead link, total loss) or never responds.
enum class QuarantineReason {
  kNone = 0,         // Not quarantined.
  kTimeout = 1,
  kMismatch = 2,
  kStaleReplay = 3,
};

const char* QuarantineReasonName(QuarantineReason reason);

class FleetAttestor {
 public:
  // `provisions` must come from ProvisionAttestationFleet on this fleet
  // (one entry per node; supplies keys and golden code).
  FleetAttestor(Fleet* fleet, std::vector<NodeProvision> provisions,
                const AttestPolicy& policy);

  // Starts an attestation round: issues a fresh challenge to every node at
  // the fleet's current cycle. May be called again on a running fleet for
  // periodic re-attestation — per-round state (attempts, verdicts) resets,
  // challenge nonces stay fresh across rounds (never reissued), and
  // superseded challenges are retired so reports captured in an earlier
  // round can never verify a node again.
  void Begin();

  // Subset round (update campaigns): fresh challenges for `subset` only.
  // Other nodes keep their state and verdicts; nonce freshness and the
  // retire-on-reissue rule are identical to a full round.
  void Begin(const std::vector<int>& subset);

  // Pumps every per-node state machine; call once after each RunQuantum.
  void OnQuantumBoundary();

  // True once every node (or every node of `subset`) is verified or
  // quarantined.
  bool Done() const;
  bool Done(const std::vector<int>& subset) const;

  AttestNodeState state(int node) const {
    return nodes_[static_cast<size_t>(node)].state;
  }
  int attempts(int node) const {
    return nodes_[static_cast<size_t>(node)].attempts;
  }
  // Quarantine cause (kNone unless state(node) == kQuarantined). Cleared
  // when a later round re-challenges the node.
  QuarantineReason quarantine_reason(int node) const {
    return nodes_[static_cast<size_t>(node)].quarantine_reason;
  }
  // Global cycle of the node's most recent fresh verified report (0 =
  // never verified) — the controller's per-node health row.
  uint64_t last_verified_cycle(int node) const {
    return nodes_[static_cast<size_t>(node)].last_verified_cycle;
  }
  // Hostile-link telemetry (all per node, cumulative across rounds).
  uint64_t mismatches(int node) const {
    return nodes_[static_cast<size_t>(node)].mismatches;
  }
  uint64_t stale_hits(int node) const {
    return nodes_[static_cast<size_t>(node)].stale_hits;
  }
  uint64_t noise_bytes(int node) const {
    return nodes_[static_cast<size_t>(node)].noise_bytes;
  }
  int rounds() const { return rounds_; }
  std::vector<int> Verified() const {
    return NodesIn(AttestNodeState::kVerified);
  }
  std::vector<int> Quarantined() const {
    return NodesIn(AttestNodeState::kQuarantined);
  }
  std::vector<int> NodesIn(AttestNodeState state) const;

  // Provisioned identity of a node (device key, FW geometry, golden code)
  // — update campaigns re-sign containers and locate the payload window
  // through this.
  const NodeProvision& provision(int node) const {
    return provisions_[static_cast<size_t>(node)];
  }
  const std::vector<uint8_t>& golden_code(int node) const {
    return provisions_[static_cast<size_t>(node)].fw_code;
  }
  // Replaces the golden code a node must attest to from now on (a firmware
  // update landed). Takes effect on the node's next challenge; reports for
  // already-issued challenges still verify against the code they were
  // issued for (each expected digest is precomputed at issue time).
  void SetGoldenCode(int node, std::vector<uint8_t> code) {
    provisions_[static_cast<size_t>(node)].fw_code = std::move(code);
  }

  // Registers a node admitted after construction (snapshot-clone
  // scale-up): appends its provision and a fresh idle state machine.
  // The index must match the fleet's id for the node (the controller adds
  // fleet node and attestor entry in lockstep). Returns that index.
  int AddNode(NodeProvision provision);

  // Deterministic event log ("@cycle node=i event ..." lines) — compared
  // verbatim across thread counts by the fleet determinism tests.
  const std::string& transcript() const { return transcript_; }

 private:
  struct NodeState {
    AttestNodeState state = AttestNodeState::kIdle;
    int attempts = 0;            // Timeouts this round.
    int issued = 0;              // Challenges ever issued (never resets:
                                 // keeps nonces fresh across rounds).
    size_t rx_offset = 0;        // Scan cursor into the kAttest channel.
    uint64_t deadline = 0;       // Timeout cycle while awaiting.
    uint64_t resume = 0;         // Re-challenge cycle while backing off.
    // Expected reports, oldest first; back() is the only live challenge.
    // Earlier entries are retired — kept as a bounded diagnostics trail so
    // stale-report replays are recognized (and, in the vulnerable
    // accept_stale_reports mode, wrongly honored).
    std::vector<Sha256Digest> expected;
    // Flood accounting — surfaced in the resolution line, never dropped
    // silently.
    uint64_t mismatches = 0;       // Well-formed reports matching nothing.
    uint64_t stale_hits = 0;       // Reports matching a retired challenge.
    uint64_t noise_bytes = 0;      // Unframeable bytes skipped and reclaimed.
    uint64_t retired_dropped = 0;  // Retired digests evicted by the cap.
    int reject_logs = 0;           // Lines logged against kAttestMaxRejectLogs.
    // Health/status surface (accessors above).
    QuarantineReason quarantine_reason = QuarantineReason::kNone;
    uint64_t last_verified_cycle = 0;
  };

  void SendChallenge(int node);
  void PumpNode(int node);
  void Log(int node, const std::string& event);
  // Logs a rejected frame against the per-node cap, then one suppression
  // line; rejects past it are only counted.
  void LogReject(int node, const std::string& event);
  uint32_t ChallengeFor(int node, int issue_index) const;

  Fleet* fleet_;
  std::vector<NodeProvision> provisions_;
  AttestPolicy policy_;
  std::vector<NodeState> nodes_;
  std::string transcript_;
  int rounds_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_ATTEST_H_
