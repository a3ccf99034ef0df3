// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet provisioning: boots every node of a fleet with the remote
// attestation stack of tests/remote_attestation_test.cc — a measured FW
// trustlet, a per-node-keyed UART attestation trustlet (trusted path, Secs.
// 1/2.3) and nanOS with the UART withheld from the OS — and optionally
// tampers a deterministic subset of nodes by flipping a bit in their live
// FW code (the paper's remote-detection scenario at population scale).
//
// Keys model a per-device provisioning secret shared with the verifier:
// each node's key is drawn from a stream seeded by (fleet_seed, node) with
// a fixed salt, so the host-side FleetAttestor can re-derive them without
// any state channel besides the fleet seed.

#ifndef TRUSTLITE_SRC_FLEET_PROVISION_H_
#define TRUSTLITE_SRC_FLEET_PROVISION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/fleet.h"

namespace trustlite {

struct FleetProvisionConfig {
  // Extra payload measured as part of the FW trustlet (e.g. an assembled
  // guest image): emitted as .word data after the idle loop, so a byte
  // change anywhere in it changes every node's attestation report.
  std::vector<uint8_t> payload;
  // Reserved capacity of the FW payload window, in bytes. The window is the
  // never-executed data tail of the FW code region; update campaigns swap
  // its contents (src/update/). Rounded up to whole words; when smaller
  // than `payload`, the payload size wins. Zero keeps the window exactly
  // payload-sized (no headroom for larger updates).
  uint32_t payload_capacity = 0;
  // Number of nodes to tamper post-boot (deterministic choice from the
  // fleet seed; one code bit flipped in FW's never-executed tail word).
  int tamper_count = 0;
  uint32_t timer_period = 2000;
  // Warm-boot cloning: run the Secure Loader once on node 0 ("golden"
  // node), snapshot its post-boot state, and provision every other node
  // with CloneNode — restore the snapshot and patch the per-device secrets
  // in place: the attestation key bytes (SRAM code + PROM image), the
  // Trustlet-Table measurement of the patched attestation trustlet, and the
  // TRNG seed. Attestation still verifies on every node; fleet digests are NOT
  // expected to match a cold boot (TRNG cursors differ by construction).
  bool warm_boot = false;
};

struct NodeProvision {
  std::array<uint8_t, 32> key{};     // Device key (verifier re-derives it).
  uint32_t fw_id = 0;                // MakeTrustletId("FW").
  uint32_t fw_code_addr = 0;
  std::vector<uint8_t> fw_code;      // Golden (pre-tamper) code bytes.
  // FW payload window (tail of the code region; see
  // FleetProvisionConfig::payload_capacity). Offsets are relative to
  // fw_code_addr; capacity 0 means no window was reserved.
  uint32_t fw_payload_offset = 0;
  uint32_t fw_payload_capacity = 0;
  // Attestation-trustlet code geometry — node copies (LocateIdentitySites)
  // find the embedded device key and the Trustlet-Table measurement row
  // through this.
  uint32_t attn_code_addr = 0;
  uint32_t attn_code_size = 0;
  bool tampered = false;
};

// Derives node `i`'s device key from the fleet seed (shared derivation
// with the host verifier).
std::array<uint8_t, 32> DeriveDeviceKey(uint64_t fleet_seed, int node);

// Builds, installs and boots the attestation image on every node of
// `fleet`, then applies the tamper plan. On success the returned vector has
// one entry per node (fw_code holds the *golden* bytes even for tampered
// nodes — exactly what the verifier expects).
Result<std::vector<NodeProvision>> ProvisionAttestationFleet(
    Fleet* fleet, const FleetProvisionConfig& config);

// Flips one bit in the never-executed tail word of the node's live FW code:
// the node keeps running but its measurement diverges from the golden
// bytes. Safe mid-run between fleet quanta (the hostile-link campaigns
// tamper nodes after their first verified report this way) as well as at
// provision time. Marks the provision tampered.
Status TamperNode(FleetNode& node, NodeProvision* provision);

// --- Node copies (DESIGN.md §14, §17) ---
//
// Warm-boot provisioning and FleetController::ScaleUp copy a node the same
// way: locate the source's identity sites, snapshot it, then CloneNode.
// The Secure Loader measured the attestation code with the source's key in
// it, so a copy redoes that work for its own key.

// Where a node's identity lives: the one live copy of the device key inside
// the attestation code, the key in the PROM image (a re-boot reloads it),
// and the one Trustlet-Table row holding SHA-256 of the code.
struct IdentitySites {
  std::vector<uint8_t> attn_code;  // Live attestation code bytes.
  uint32_t key_offset = 0;         // Key offset inside attn_code.
  uint32_t prom_key_offset = 0;    // Key offset inside the PROM image.
  uint32_t tt_row_offset = 0;      // Row offset from kTrustletTableBase.
};

// Finds `provision`'s identity sites on `node`. Fails closed and writes
// nothing unless the provision has attestation geometry, its key occurs
// exactly once in the live attestation code and at least once in the PROM
// image, and exactly one Trustlet-Table row holds the code's measurement.
Result<IdentitySites> LocateIdentitySites(FleetNode& node,
                                          const NodeProvision& provision);

// Restores `snapshot` (taken of the node `source` describes right after
// `sites` were located on it) into `clone`, then gives the copy its own
// identity: writes DeriveDeviceKey(fleet_seed, clone.id()) into SRAM and
// PROM, rewrites the measurement row last (a failed copy never attests as a
// half-keyed chimera), reseeds the TRNG from clone.device_seed() and
// releases the thread latch. Returns `source` with the new key and
// `tampered` cleared.
Result<NodeProvision> CloneNode(const std::vector<uint8_t>& snapshot,
                                bool verify_checksums,
                                const NodeProvision& source,
                                const IdentitySites& sites,
                                uint64_t fleet_seed, FleetNode& clone);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_PROVISION_H_
