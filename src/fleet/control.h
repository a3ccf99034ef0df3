// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet control plane (DESIGN.md §17): a long-running controller that owns
// a fleet across its whole lifecycle — the "k3s for trustlets" layer on top
// of the attestor (attest.h) and the OTA campaign (update.h). It keeps a
// roster, and every tlfleetd session phase is one of its methods:
//
//   * Attestation-gated admission: a node joins the roster only after a
//     fresh verified report; failures land in quarantine with a stable
//     QuarantineReason (attest.h).
//   * Periodic re-attestation epochs over the admitted roster, with
//     per-node health rows (last-verified cycle, node-reported beacon
//     counters, config generation) surfaced as newline-delimited JSON
//     status epochs and a human watch summary.
//   * OTA update: one UpdateCampaign per firmware container, pumped by the
//     controller's quantum loop; its post-update re-attestation verdicts
//     land in the roster.
//   * Config push: ConfigMap-style key/value blobs delivered over the link
//     fabric as CRC-framed 0xC6 frames into a node-side config region in
//     DRAM, acknowledged by the node's config agent with a SHA-256 digest
//     of the applied region (0xC7), then re-measured by a re-attestation
//     round. Integrity split: the ack digest pins the config content, the
//     attestation report pins the code that will consume it.
//   * Live elasticity: copy a running admitted node onto a new node id
//     (Fleet::AddNode) with its own key (CloneNode, provision.h),
//     re-attest, admit.
//
// Node-side agents (config apply + ack, periodic health beacons) are
// simulated by the controller at quantum boundaries, in node-id order, on
// node-local state only — the same idiom as the update agent's staging
// stream (src/fleet/update.h). Every frame still crosses the real link
// fabric, so latency, loss and the PR7 hostile modes all apply to the
// control plane too.
//
// Determinism: the controller acts only at quantum boundaries, serially,
// in node-id order. Its transcript, status epochs and the fleet digest are
// bit-identical across host thread counts for a fixed seed.

#ifndef TRUSTLITE_SRC_FLEET_CONTROL_H_
#define TRUSTLITE_SRC_FLEET_CONTROL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/fleet/attest.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/mem/layout.h"

namespace trustlite {

// --- Node-side config region ---------------------------------------------
//
// Pushed config lives in a fixed window at the base of DRAM (untrusted bulk
// memory — the paper's integrity-protected-data story, Sec. 4.1, is exactly
// why the ack carries a digest). Layout:
//   +0  generation  (4, LE)   +4  length (4, LE)   +8  blob bytes
// zero-padded to the region size; the ack digest is SHA-256 over the whole
// region, padding included.
inline constexpr uint32_t kNodeConfigRegionAddr = kDramBase;
inline constexpr uint32_t kNodeConfigRegionSize = 1024;
static_assert(kMaxConfigBlobBytes == kNodeConfigRegionSize - 8,
              "a config blob fills the region after its 8-byte header");

// Serializes ConfigMap-style entries as "key=value\n" lines (the blob
// format the config agent writes verbatim into the region).
std::string EncodeConfigBlob(
    const std::vector<std::pair<std::string, std::string>>& entries);

// The config region image holding (generation, blob), as the config agent
// writes it, and its SHA-256 — what a correct ack must report.
std::vector<uint8_t> ConfigRegionImage(uint32_t generation,
                                       std::string_view blob);
Sha256Digest ConfigRegionDigest(uint32_t generation, const std::string& blob);

// --- Control-plane wire frames (docs/WIRE_PROTOCOL.md) -------------------
//
// CRC-32-framed like the 0xD5 update chunks, and scanned by the same codec
// (src/fleet/frame.h):
//
//   config push (0xC6, verifier -> node):
//     marker(1) push_id(4) generation(4) len(2) blob(len) crc(4)
//   config ack (0xC7, node -> verifier):
//     marker(1) push_id(4) generation(4) digest(32) crc(4)
//   health beacon (0xC8, node -> verifier):
//     marker(1) cycle(8) instructions(8) tx(8) rx(8) config_gen(4)
//     halted(1) crc(4)

std::string EncodeConfigFrame(uint32_t push_id, uint32_t generation,
                              const std::string& blob);
std::string EncodeConfigAck(uint32_t push_id, uint32_t generation,
                            const Sha256Digest& digest);

// Node-reported health counters (node-local state only; see header note).
struct HealthBeacon {
  uint64_t cycle = 0;         // Node CPU cycle at emission.
  uint64_t instructions = 0;  // Retired instructions.
  uint64_t tx_bytes = 0;      // Fabric bytes harvested from the node.
  uint64_t rx_bytes = 0;      // Fabric bytes delivered into the node.
  uint32_t config_generation = 0;  // Generation applied in the region.
  bool halted = false;
};
std::string EncodeHealthFrame(const HealthBeacon& beacon);

// --- Controller ----------------------------------------------------------

// Config push: per-node retransmit deadline and retry cap.
inline constexpr uint64_t kConfigPushTimeoutCycles = 400'000;
inline constexpr int kConfigPushMaxRetries = 25;

struct FleetdPolicy {
  AttestPolicy attest;
  // Budget (quanta) for the admission round and for each re-attestation /
  // update / config-push / scale-up verify phase. A phase that fails to
  // resolve inside its budget is an error, never a hang.
  uint64_t phase_quanta = 4'000;
  // Idle quanta run between epochs — the re-attestation period.
  uint64_t epoch_idle_quanta = 32;
  // Node health agents emit a beacon every this many quanta (0 = off).
  uint32_t beacon_every_quanta = 8;
  // Stop a phase with an error as soon as it quarantines a node (operator
  // halt-the-line policy; the node stays quarantined either way). An
  // update phase also aborts its campaign and rolls back uncommitted nodes.
  bool halt_on_quarantine = false;
};

// Roster membership, gated on attestation.
enum class RosterState {
  kPending,      // Never admitted (admission not run or still unresolved).
  kAdmitted,     // Verified by the latest round that challenged it.
  kQuarantined,  // Removed from the roster; reason in NodeHealth.
};
const char* RosterStateName(RosterState state);

struct NodeHealth {
  RosterState roster = RosterState::kPending;
  QuarantineReason reason = QuarantineReason::kNone;
  uint64_t last_verified_cycle = 0;  // From the attestor.
  uint64_t beacon_seen_cycle = 0;    // Global cycle the last beacon arrived.
  HealthBeacon beacon;               // Last beacon contents (node-reported).
  uint32_t config_generation = 0;    // Highest generation the node acked.
  int cloned_from = -1;              // Source node id, -1 = provisioned.
};

class FleetController {
 public:
  // `provisions` must cover fleet->num_nodes() nodes (from
  // ProvisionAttestationFleet). The controller does not own the fleet but
  // drives it exclusively: no other code may call RunQuantum while a
  // controller phase is active.
  FleetController(Fleet* fleet, std::vector<NodeProvision> provisions,
                  const FleetdPolicy& policy);

  // Initial attestation round; verified nodes join the roster. Emits an
  // "admission" status epoch. Fails when the round does not resolve in
  // phase_quanta (and with halt_on_quarantine, when any node quarantines).
  Status RunAdmission();

  // One re-attestation epoch: idle-runs epoch_idle_quanta (beacons keep
  // flowing), challenges the admitted roster, waits for resolution,
  // demotes newly quarantined nodes. Emits a "reattest" epoch.
  Status RunReattestEpoch();

  // Rolls the .tlfw `container` out to the admitted roster as one
  // UpdateCampaign (DESIGN.md §16): canary_pct percent first, aborted with
  // rollback of uncommitted nodes on a quarantine under
  // halt_on_quarantine. Each quantum runs the node agents and the control
  // stream, then the campaign, which pumps the attestor in its verify
  // waves; `after_quantum`, when set, runs next (a test hook). Folds the
  // campaign's re-attestation verdicts into the roster and emits an
  // "update" epoch. Fails unless the campaign succeeds. Campaigns share the
  // nodes' monotonic anti-rollback counters, so an older image in a later
  // phase is rejected.
  Status RunUpdate(
      std::vector<uint8_t> container, int canary_pct,
      const std::function<void(const UpdateCampaign&)>& after_quantum = {});

  // Pushes key/value config to every admitted node: 0xC6 frame per node
  // with stop-and-wait retransmit, digest-checked 0xC7 acks, then a
  // re-attestation round over the pushed nodes ("re-measured"). Emits a
  // "config-push" epoch.
  Status PushConfig(
      const std::vector<std::pair<std::string, std::string>>& entries);

  // Clones `count` new nodes from admitted sources (round-robin):
  // LocateIdentitySites -> snapshot -> Fleet::AddNode -> CloneNode ->
  // re-attest -> admit. Emits a "scale-up" epoch. Star topologies only
  // (Fleet::AddNode).
  Status ScaleUp(int count);

  // Runs until the fabric is empty (or the phase budget ends). Emits a
  // "drain" epoch.
  void Drain();

  int num_nodes() const { return static_cast<int>(health_.size()); }
  const NodeHealth& health(int node) const {
    return health_[static_cast<size_t>(node)];
  }
  std::vector<int> Admitted() const { return NodesIn(RosterState::kAdmitted); }
  std::vector<int> Quarantined() const {
    return NodesIn(RosterState::kQuarantined);
  }
  uint32_t config_generation() const { return config_generation_; }
  int epochs() const { return epochs_; }
  uint64_t quanta_run() const { return quanta_run_; }
  Fleet& fleet() { return *fleet_; }
  FleetAttestor& attestor() { return attestor_; }
  // The campaigns of the update phases run so far, in order.
  const std::vector<UpdateCampaign>& campaigns() const { return campaigns_; }

  // Controller event log ("@cycle fleetd ..." lines), deterministic across
  // thread counts like the attestor's.
  const std::string& transcript() const { return transcript_; }

  // One JSON object per completed phase, in order (newline-delimited when
  // written to a file). Validated by observe/json.h JsonParses in tests.
  const std::vector<std::string>& status_epochs() const {
    return status_epochs_;
  }

  // Human one-liner for --watch: roster counts + beacon/config summary.
  std::string WatchSummary() const;

 private:
  // Node-side agent state (config apply cursor, beacon countdown).
  struct NodeAgent {
    size_t config_rx_offset = 0;
    uint32_t applied_generation = 0;
    uint32_t applied_push_id = 0;
    Sha256Digest applied_digest{};
    bool has_applied = false;
    uint32_t beacon_countdown = 1;  // Quanta until the next beacon.
  };
  // Controller-side view of one node's progress through the active push.
  struct PushState {
    bool target = false;
    bool acked = false;
    uint64_t deadline = 0;
    int retries = 0;
  };

  // One quantum: RunQuantum -> node agents -> control-stream processing ->
  // attestor pump, or the campaign's step during an update phase. The only
  // way the fleet advances under a controller.
  void Pump(UpdateCampaign* campaign = nullptr);
  void RunIdle(uint64_t quanta);
  // Pumps until `done` or the phase budget; returns false on budget
  // exhaustion.
  template <typename DoneFn>
  bool PumpUntil(DoneFn done);
  void PumpNodeAgents();
  void ProcessControlRx();
  std::vector<int> NodesIn(RosterState roster) const;
  // Ends a phase's attestation round: folds the attestor's verdicts for
  // `subset` into the roster and emits the `phase` status epoch. Under
  // halt_on_quarantine, fails when a node was newly quarantined (the error
  // names `round`).
  Status EndRound(const std::vector<int>& subset, const char* phase,
                  const std::string& round);
  void EmitEpoch(const char* phase);
  void Log(const std::string& event);

  Fleet* fleet_;
  FleetAttestor attestor_;
  FleetdPolicy policy_;
  std::vector<NodeHealth> health_;
  std::vector<NodeAgent> agents_;
  std::vector<size_t> control_rx_offset_;  // Verifier-side scan cursors.
  // Active config push (one at a time).
  uint32_t config_generation_ = 0;
  uint32_t active_push_id_ = 0;
  std::string active_blob_;
  Sha256Digest active_digest_{};
  std::vector<PushState> push_;
  std::vector<UpdateCampaign> campaigns_;
  int scale_up_round_robin_ = 0;
  int epochs_ = 0;
  uint64_t quanta_run_ = 0;
  std::string transcript_;
  std::vector<std::string> status_epochs_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_CONTROL_H_
