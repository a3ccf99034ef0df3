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

// Cold-boots `node` through the full Secure Loader path.
Status ColdProvisionNode(FleetNode& node, const FleetProvisionConfig& config,
                         const std::array<uint8_t, 32>& key,
                         NodeProvision* provision) {
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
  return OkStatus();
}

// Stores the offset of the first `needle` in `haystack`. Fails when there is
// none, and when `unique` is set and there is a second.
Status FindSite(std::span<const uint8_t> haystack,
                const std::array<uint8_t, 32>& needle, bool unique,
                const std::string& what, const std::string& where,
                uint32_t* offset) {
  const auto it = std::search(haystack.begin(), haystack.end(),
                              needle.begin(), needle.end());
  if (it == haystack.end()) {
    return Internal(what + " not found in " + where);
  }
  if (unique && std::search(it + 1, haystack.end(), needle.begin(),
                            needle.end()) != haystack.end()) {
    return Internal("ambiguous " + what + " in " + where);
  }
  *offset = static_cast<uint32_t>(std::distance(haystack.begin(), it));
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

Result<IdentitySites> LocateIdentitySites(FleetNode& node,
                                          const NodeProvision& provision) {
  if (provision.attn_code_size == 0) {
    return Internal("provision lacks attestation code geometry");
  }
  Bus& bus = node.platform().bus();
  IdentitySites sites;
  if (!bus.HostReadBytes(provision.attn_code_addr, provision.attn_code_size,
                         &sites.attn_code)) {
    return Internal("cannot read live attestation code");
  }
  TL_RETURN_IF_ERROR(FindSite(sites.attn_code, provision.key,
                              /*unique=*/true, "device key",
                              "live attestation code", &sites.key_offset));
  TL_RETURN_IF_ERROR(FindSite(node.platform().prom().data(), provision.key,
                              /*unique=*/false, "device key", "PROM image",
                              &sites.prom_key_offset));
  // The Secure Loader stored SHA-256(live attn code) in the trustlet's
  // Trustlet-Table row.
  std::vector<uint8_t> table;
  if (!bus.HostReadBytes(kTrustletTableBase, 0x1000, &table)) {
    return Internal("cannot read Trustlet Table");
  }
  TL_RETURN_IF_ERROR(FindSite(table, Sha256Hash(sites.attn_code),
                              /*unique=*/true, "attestation measurement",
                              "Trustlet Table", &sites.tt_row_offset));
  return sites;
}

Result<NodeProvision> CloneNode(const std::vector<uint8_t>& snapshot,
                                bool verify_checksums,
                                const NodeProvision& source,
                                const IdentitySites& sites,
                                uint64_t fleet_seed, FleetNode& clone) {
  SnapshotRestoreOptions restore_options;
  restore_options.verify_checksums = verify_checksums;
  TL_RETURN_IF_ERROR(
      RestorePlatform(&clone.platform(), snapshot, restore_options));
  NodeProvision provision = source;
  provision.tampered = false;
  provision.key = DeriveDeviceKey(fleet_seed, clone.id());
  const std::vector<uint8_t> key(provision.key.begin(), provision.key.end());

  // 1. The key: live SRAM copy (what the trustlet reads at run time), then
  //    the PROM image (what a re-boot would reload). PROM rejects bus
  //    writes by design, so its backing store goes through the host-side
  //    loader path with an explicit cache invalidation.
  Bus& bus = clone.platform().bus();
  if (!bus.HostWriteBytes(source.attn_code_addr + sites.key_offset, key)) {
    return Internal("cannot patch live key copy");
  }
  TL_RETURN_IF_ERROR(clone.platform().prom().LoadBytes(sites.prom_key_offset,
                                                       key));
  bus.NoteHostMutation();

  // 2. Last, the measurement row: the located code with only the key
  //    spliced in, exactly the bytes now live in the copy's SRAM.
  std::vector<uint8_t> code = sites.attn_code;
  std::copy(key.begin(), key.end(), code.begin() + sites.key_offset);
  const Sha256Digest measurement = Sha256Hash(code);
  if (!bus.HostWriteBytes(
          kTrustletTableBase + sites.tt_row_offset,
          std::vector<uint8_t>(measurement.begin(), measurement.end()))) {
    return Internal("cannot patch Trustlet-Table measurement");
  }

  // 3. Per-device randomness: the copy draws from its own stream.
  clone.platform().trng().Reseed(clone.device_seed());
  clone.platform().ReleaseThreadAffinity();
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

  // Warm boot: node 0 is cold-booted and copied into every other node.
  std::vector<uint8_t> golden;
  IdentitySites golden_sites;
  for (int i = 0; i < fleet->num_nodes(); ++i) {
    FleetNode& node = fleet->node(i);
    NodeProvision provision;
    if (config.warm_boot && i > 0) {
      // Every copy restores the same in-memory buffer: only the first one
      // checks its CRCs (DESIGN.md §15, "Warm-boot amortizations").
      Result<NodeProvision> copy =
          CloneNode(golden, /*verify_checksums=*/i == 1, provisions[0],
                    golden_sites, fleet->config().seed, node);
      if (!copy.ok()) {
        return copy.status();
      }
      provision = std::move(*copy);
    } else {
      TL_RETURN_IF_ERROR(ColdProvisionNode(
          node, config, DeriveDeviceKey(fleet->config().seed, i), &provision));
      if (config.warm_boot) {
        Result<IdentitySites> sites = LocateIdentitySites(node, provision);
        if (!sites.ok()) {
          return sites.status();
        }
        golden_sites = std::move(*sites);
        SnapshotSaveOptions save_options;
        save_options.include_digest = false;
        Result<std::vector<uint8_t>> snapshot =
            SavePlatform(node.platform(), save_options);
        if (!snapshot.ok()) {
          return snapshot.status();
        }
        golden = std::move(*snapshot);
      }
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
