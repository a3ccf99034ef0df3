// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/provision.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/harness/injector.h"
#include "src/loader/system_image.h"
#include "src/mem/layout.h"
#include "src/os/nanos.h"
#include "src/services/attestation.h"
#include "src/snapshot/snapshot.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

// Domain-separation salts folded into the fleet seed so keys and the tamper
// plan draw from streams unrelated to the nodes' TRNG seeds.
constexpr uint64_t kKeySalt = 0x6B65795F73616C74ull;     // "key_salt"
constexpr uint64_t kTamperSalt = 0x74616D7065720000ull;  // "tamper"

constexpr uint32_t kAttnCodeAddr = 0x15000;
constexpr uint32_t kAttnDataAddr = 0x16000;

// Word-granular size of the FW payload window: large enough for the
// provisioned payload, grown to the requested capacity headroom.
uint32_t PaddedPayloadCapacity(const FleetProvisionConfig& config) {
  const uint32_t payload_words =
      (static_cast<uint32_t>(config.payload.size()) + 3) / 4;
  const uint32_t capacity_words = (config.payload_capacity + 3) / 4;
  return 4 * std::max(payload_words, capacity_words);
}

std::string PayloadDirectives(const std::vector<uint8_t>& payload,
                              uint32_t capacity_bytes) {
  if (capacity_bytes == 0) {
    return "";
  }
  std::string body = "tl_payload:\n";
  char line[32];
  for (uint32_t i = 0; i < capacity_bytes; i += 4) {
    uint32_t word = 0;
    for (uint32_t b = 0; b < 4 && i + b < payload.size(); ++b) {
      word |= static_cast<uint32_t>(payload[i + b]) << (8 * b);
    }
    std::snprintf(line, sizeof(line), "    .word 0x%08X\n", word);
    body += line;
  }
  return body;
}

TrustletBuildSpec FirmwareSpec(const FleetProvisionConfig& config) {
  TrustletBuildSpec spec;
  spec.name = "FW";
  spec.code_addr = 0x11000;
  spec.data_addr = 0x12000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  // tl_handle_call is spelled out (instead of relying on the builder's
  // appended default) so the payload window is the exact tail of the code
  // region — update campaigns overwrite [code_end - capacity, code_end).
  spec.body =
      "tl_main:\n    wfi\n    jmp tl_main\n"
      "tl_handle_call:\n    jr lr\n";
  spec.body += PayloadDirectives(config.payload, PaddedPayloadCapacity(config));
  return spec;
}

struct NodeImage {
  SystemImage image;
  TrustletMeta firmware;
  TrustletMeta attn;
};

Result<NodeImage> BuildNodeImage(const FleetProvisionConfig& config,
                                 const std::array<uint8_t, 32>& key) {
  NodeImage built;
  Result<TrustletMeta> firmware = BuildTrustlet(FirmwareSpec(config));
  if (!firmware.ok()) {
    return firmware.status();
  }
  built.firmware = *firmware;
  built.image.Add(*firmware);

  AttestationSpec attn;
  attn.code_addr = kAttnCodeAddr;
  attn.data_addr = kAttnDataAddr;
  attn.key = key;
  Result<TrustletMeta> attn_meta = BuildUartAttestationTrustlet(attn);
  if (!attn_meta.ok()) {
    return attn_meta.status();
  }
  built.attn = *attn_meta;
  built.image.Add(*attn_meta);

  NanosConfig os_config;
  os_config.grant_uart = false;  // Trusted path: the attestor owns the UART.
  os_config.timer_period = config.timer_period;
  Result<TrustletMeta> os = BuildNanos(os_config);
  if (!os.ok()) {
    return os.status();
  }
  built.image.Add(*os);
  return built;
}

// Deterministic tamper plan: sample distinct victims from a salted stream.
std::set<int> TamperPlan(const Fleet& fleet, int tamper_count) {
  std::set<int> tampered;
  if (tamper_count > 0 && fleet.num_nodes() > 0) {
    Xoshiro256 rng(DeriveDeviceSeed(fleet.config().seed ^ kTamperSalt, 0));
    const int want = std::min(tamper_count, fleet.num_nodes());
    while (static_cast<int>(tampered.size()) < want) {
      tampered.insert(static_cast<int>(
          rng.NextBelow(static_cast<uint64_t>(fleet.num_nodes()))));
    }
  }
  return tampered;
}

// Cold-boots `node` through the full Secure Loader path. `built_out`
// (optional) receives the build products for snapshot-based cloning.
Status ColdProvisionNode(FleetNode& node, const FleetProvisionConfig& config,
                         const std::array<uint8_t, 32>& key,
                         NodeProvision* provision, NodeImage* built_out) {
  Result<NodeImage> built = BuildNodeImage(config, key);
  if (!built.ok()) {
    return built.status();
  }
  provision->key = key;
  provision->fw_id = MakeTrustletId("FW");
  provision->fw_code_addr = built->firmware.code_addr;
  provision->fw_code = built->firmware.code;
  provision->fw_payload_capacity = PaddedPayloadCapacity(config);
  provision->fw_payload_offset =
      static_cast<uint32_t>(built->firmware.code.size()) -
      provision->fw_payload_capacity;
  provision->attn_code_addr = built->attn.code_addr;
  provision->attn_code_size = static_cast<uint32_t>(built->attn.code.size());

  Status installed = node.platform().InstallImage(built->image);
  if (!installed.ok()) {
    return installed;
  }
  Result<LoadReport> report = node.platform().BootAndLaunch();
  if (!report.ok()) {
    return report.status();
  }

  // Golden measurement = the LIVE code bytes after loading (the Secure
  // Loader patches the trustlet scaffold, e.g. the Trustlet-Table slot
  // word), exactly what the attestation trustlet will hash.
  if (!node.platform().bus().HostReadBytes(
          provision->fw_code_addr,
          static_cast<uint32_t>(provision->fw_code.size()),
          &provision->fw_code)) {
    return Internal("cannot read back live FW code");
  }
  if (built_out != nullptr) {
    *built_out = std::move(*built);
  }
  return OkStatus();
}

// Warm-boots a clone: restore the golden node's post-boot snapshot and
// patch the per-device state in place. All clones restore the SAME bytes,
// so every patch site is located once (LocateGoldenPatchSites) and clones
// write directly — no per-clone searching.
struct GoldenState {
  std::vector<uint8_t> snapshot;
  std::array<uint8_t, 32> key{};
  uint32_t attn_code_addr = 0;
  uint32_t attn_code_size = 0;
  std::vector<uint8_t> attn_code;      // Live post-boot attestation code.
  uint32_t sram_key_addr = 0;          // Bus address of the key in SRAM.
  uint32_t prom_key_offset = 0;        // Key offset inside the PROM image.
  uint32_t tt_measurement_addr = 0;    // Attn row hash in the Trustlet Table.
};

// Finds the one live SRAM key copy, the PROM image key copy and the
// Trustlet-Table measurement row on the freshly booted golden node. Run
// once; WarmProvisionClone reuses the addresses for every clone.
Status LocateGoldenPatchSites(Platform& platform, GoldenState* golden) {
  Bus& bus = platform.bus();
  const std::vector<uint8_t> key(golden->key.begin(), golden->key.end());

  if (!bus.HostReadBytes(golden->attn_code_addr, golden->attn_code_size,
                         &golden->attn_code)) {
    return Internal("cannot read golden attestation code");
  }
  auto key_it = std::search(golden->attn_code.begin(), golden->attn_code.end(),
                            key.begin(), key.end());
  if (key_it == golden->attn_code.end()) {
    return Internal("golden key not found in live attestation code");
  }
  golden->sram_key_addr =
      golden->attn_code_addr +
      static_cast<uint32_t>(std::distance(golden->attn_code.begin(), key_it));
  if (std::search(key_it + 1, golden->attn_code.end(), key.begin(),
                  key.end()) != golden->attn_code.end()) {
    return Internal("multiple live key copies in attestation code");
  }

  const std::vector<uint8_t>& rom = platform.prom().data();
  auto rom_it = std::search(rom.begin(), rom.end(), key.begin(), key.end());
  if (rom_it == rom.end()) {
    return Internal("golden key not found in PROM image");
  }
  golden->prom_key_offset =
      static_cast<uint32_t>(std::distance(rom.begin(), rom_it));

  // The Secure Loader stored SHA-256(live attn code) in the trustlet's
  // Trustlet-Table row; find that row so clones can re-measure in place.
  const Sha256Digest measurement = Sha256Hash(golden->attn_code);
  std::vector<uint8_t> table;
  if (!bus.HostReadBytes(kTrustletTableBase, 0x1000, &table)) {
    return Internal("cannot read Trustlet Table");
  }
  auto tt_it = std::search(table.begin(), table.end(), measurement.begin(),
                           measurement.end());
  if (tt_it == table.end()) {
    return Internal("attestation measurement not found in Trustlet Table");
  }
  golden->tt_measurement_addr =
      kTrustletTableBase +
      static_cast<uint32_t>(std::distance(table.begin(), tt_it));
  if (std::search(tt_it + 1, table.end(), measurement.begin(),
                  measurement.end()) != table.end()) {
    return Internal("ambiguous attestation measurement in Trustlet Table");
  }
  return OkStatus();
}

Status WarmProvisionClone(FleetNode& node, const GoldenState& golden,
                          const std::array<uint8_t, 32>& key,
                          bool first_clone, NodeProvision* provision) {
  // High-frequency path: skip the SHA digest check on every clone (the
  // property tests cover it), and only CRC the golden buffer on the first
  // clone — every later restore re-reads the same in-memory bytes, so
  // re-checksumming them per clone is pure waste (DESIGN.md §14).
  SnapshotRestoreOptions restore_options;
  restore_options.verify_digest = false;
  restore_options.verify_checksums = first_clone;
  TL_RETURN_IF_ERROR(
      RestorePlatform(&node.platform(), golden.snapshot, restore_options));
  provision->key = key;

  Bus& bus = node.platform().bus();
  const std::vector<uint8_t> node_key(key.begin(), key.end());

  // 1. Patch the key: live SRAM copy (what the trustlet reads at run time)
  //    and the PROM image (what a re-boot would reload). PROM rejects bus
  //    writes by design, so its backing store goes through the host-side
  //    loader path with an explicit cache invalidation.
  if (!bus.HostWriteBytes(golden.sram_key_addr, node_key)) {
    return Internal("cannot patch live key copy");
  }
  node.platform().prom().LoadBytes(golden.prom_key_offset, node_key);
  bus.NoteHostMutation();

  // 2. Fix up the trustlet's Trustlet-Table row with this clone's
  //    measurement: the golden attestation code with only the key spliced
  //    in, exactly the bytes now live in the clone's SRAM.
  std::vector<uint8_t> patched = golden.attn_code;
  std::copy(key.begin(), key.end(),
            patched.begin() + (golden.sram_key_addr - golden.attn_code_addr));
  const Sha256Digest measurement = Sha256Hash(patched);
  if (!bus.HostWriteBytes(
          golden.tt_measurement_addr,
          std::vector<uint8_t>(measurement.begin(), measurement.end()))) {
    return Internal("cannot patch Trustlet-Table measurement");
  }

  // 3. Per-device randomness: the clone must draw from its own stream, not
  //    the golden node's.
  node.platform().trng().Reseed(node.device_seed());
  return OkStatus();
}

}  // namespace

// Flips a bit in FW's never-executed tail word: the node keeps running
// normally but its live measurement diverges from the golden code.
Status TamperNode(FleetNode& node, NodeProvision* provision) {
  const uint32_t victim =
      provision->fw_code_addr +
      static_cast<uint32_t>(provision->fw_code.size()) - 4;
  if (!FlipRamBit(&node.platform().bus(), victim, 1)) {
    return Internal("tamper bit-flip failed");
  }
  provision->tampered = true;
  return OkStatus();
}

Result<NodeProvision> RekeyClonedNode(FleetNode& node,
                                      const NodeProvision& source,
                                      uint64_t fleet_seed) {
  if (source.attn_code_size == 0) {
    return Internal("source provision lacks attestation code geometry");
  }
  NodeProvision provision = source;
  provision.tampered = false;
  provision.key = DeriveDeviceKey(fleet_seed, node.id());

  Bus& bus = node.platform().bus();
  const std::vector<uint8_t> old_key(source.key.begin(), source.key.end());
  const std::vector<uint8_t> new_key(provision.key.begin(),
                                     provision.key.end());

  // Locate every patch site BEFORE mutating anything: the restored clone is
  // a byte-exact copy of the source, so the source key appears exactly once
  // in the live attestation code, once in the PROM image, and the Trustlet
  // Table holds SHA-256 of that live code in exactly one row.
  std::vector<uint8_t> attn_code;
  if (!bus.HostReadBytes(source.attn_code_addr, source.attn_code_size,
                         &attn_code)) {
    return Internal("cannot read clone attestation code");
  }
  auto key_it = std::search(attn_code.begin(), attn_code.end(),
                            old_key.begin(), old_key.end());
  if (key_it == attn_code.end()) {
    return Internal("source key not found in clone attestation code");
  }
  const size_t key_offset =
      static_cast<size_t>(std::distance(attn_code.begin(), key_it));
  if (std::search(key_it + 1, attn_code.end(), old_key.begin(),
                  old_key.end()) != attn_code.end()) {
    return Internal("multiple live key copies in clone attestation code");
  }

  const std::vector<uint8_t>& rom = node.platform().prom().data();
  auto rom_it = std::search(rom.begin(), rom.end(), old_key.begin(),
                            old_key.end());
  if (rom_it == rom.end()) {
    return Internal("source key not found in clone PROM image");
  }
  const uint32_t prom_key_offset =
      static_cast<uint32_t>(std::distance(rom.begin(), rom_it));

  const Sha256Digest old_measurement = Sha256Hash(attn_code);
  std::vector<uint8_t> table;
  if (!bus.HostReadBytes(kTrustletTableBase, 0x1000, &table)) {
    return Internal("cannot read clone Trustlet Table");
  }
  auto tt_it = std::search(table.begin(), table.end(),
                           old_measurement.begin(), old_measurement.end());
  if (tt_it == table.end()) {
    return Internal("attestation measurement not found in clone Trustlet "
                    "Table");
  }
  const uint32_t tt_row_addr =
      kTrustletTableBase +
      static_cast<uint32_t>(std::distance(table.begin(), tt_it));

  // Patch: live SRAM key, PROM key (a re-boot reloads it), then — last, so
  // a failure above leaves the clone attesting as a plain source copy
  // rather than a half-keyed chimera — the Trustlet-Table measurement row.
  if (!bus.HostWriteBytes(source.attn_code_addr +
                              static_cast<uint32_t>(key_offset),
                          new_key)) {
    return Internal("cannot patch clone live key copy");
  }
  node.platform().prom().LoadBytes(prom_key_offset, new_key);
  bus.NoteHostMutation();
  std::copy(new_key.begin(), new_key.end(), attn_code.begin() + key_offset);
  const Sha256Digest new_measurement = Sha256Hash(attn_code);
  if (!bus.HostWriteBytes(tt_row_addr,
                          std::vector<uint8_t>(new_measurement.begin(),
                                               new_measurement.end()))) {
    return Internal("cannot patch clone Trustlet-Table measurement");
  }

  // The clone draws randomness from its own derived stream from here on.
  node.platform().trng().Reseed(node.device_seed());
  node.platform().ReleaseThreadAffinity();
  return provision;
}

std::array<uint8_t, 32> DeriveDeviceKey(uint64_t fleet_seed, int node) {
  Xoshiro256 rng(
      DeriveDeviceSeed(fleet_seed ^ kKeySalt, static_cast<uint32_t>(node)));
  std::array<uint8_t, 32> key{};
  for (size_t i = 0; i < key.size(); i += 8) {
    uint64_t word = rng.Next64();
    for (size_t b = 0; b < 8; ++b) {
      key[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return key;
}

Result<std::vector<NodeProvision>> ProvisionAttestationFleet(
    Fleet* fleet, const FleetProvisionConfig& config) {
  std::vector<NodeProvision> provisions;
  provisions.reserve(static_cast<size_t>(fleet->num_nodes()));
  const std::set<int> tampered = TamperPlan(*fleet, config.tamper_count);

  GoldenState golden;
  for (int i = 0; i < fleet->num_nodes(); ++i) {
    FleetNode& node = fleet->node(i);
    NodeProvision provision;
    const std::array<uint8_t, 32> key =
        DeriveDeviceKey(fleet->config().seed, i);

    const bool warm_clone = config.warm_boot && i > 0;
    if (!warm_clone) {
      NodeImage built;
      TL_RETURN_IF_ERROR(
          ColdProvisionNode(node, config, key, &provision,
                            config.warm_boot ? &built : nullptr));
      if (config.warm_boot) {
        // This is the golden node: capture its post-Secure-Loader state
        // once, then clone it into every other node.
        golden.key = key;
        golden.attn_code_addr = built.attn.code_addr;
        golden.attn_code_size = static_cast<uint32_t>(built.attn.code.size());
        TL_RETURN_IF_ERROR(LocateGoldenPatchSites(node.platform(), &golden));
        SnapshotSaveOptions save_options;
        save_options.include_digest = false;
        Result<std::vector<uint8_t>> snapshot =
            SavePlatform(node.platform(), save_options);
        if (!snapshot.ok()) {
          return snapshot.status();
        }
        golden.snapshot = std::move(*snapshot);
      }
    } else {
      TL_RETURN_IF_ERROR(WarmProvisionClone(node, golden, key,
                                            /*first_clone=*/i == 1,
                                            &provision));
      // Warm clones share the golden node's FW trustlet bytes.
      provision.fw_id = provisions[0].fw_id;
      provision.fw_code_addr = provisions[0].fw_code_addr;
      provision.fw_code = provisions[0].fw_code;
      provision.fw_payload_offset = provisions[0].fw_payload_offset;
      provision.fw_payload_capacity = provisions[0].fw_payload_capacity;
      provision.attn_code_addr = provisions[0].attn_code_addr;
      provision.attn_code_size = provisions[0].attn_code_size;
    }

    if (tampered.count(i) != 0) {
      TL_RETURN_IF_ERROR(TamperNode(node, &provision));
    }

    // Provisioning drove the platform from this thread; release the
    // affinity latch so the first quantum may run on any pool worker.
    node.platform().ReleaseThreadAffinity();
    provisions.push_back(std::move(provision));
  }
  return provisions;
}

}  // namespace trustlite
