// Copyright 2026 The TrustLite Reproduction Authors.
//
// SMART baseline (Defrawy et al., NDSS 2012), as characterized in the
// TrustLite paper (Secs. 1, 7): a custom access-control rule on the memory
// bus gives a ROM-resident attestation routine *exclusive* read access to a
// secret key. The instruction pointer may only enter the ROM routine at its
// first instruction; any violation — foreign key access or a mid-routine
// jump — forces a platform reset, and SMART requires the hardware to
// sanitize all volatile memory on reset.
//
// Contrast with TrustLite (paper Sec. 7): the routine and key are fixed at
// manufacturing time (no field update), there is exactly one trusted
// service, nothing is interruptible, and every interaction pays a full
// attestation pass.
//
// The guest routine implements genuine HMAC-SHA256 (via the SHA engine)
// over a verifier-chosen nonce and memory region; the host verifier checks
// it against the software HMAC implementation.
//
// Mailbox layout (open memory):
//   +0  command   (1 = attest request; routine clears when done)
//   +4  nonce
//   +8  region base        +12 region end (exclusive)
//   +16 continuation       (address the routine jumps to when finished)
//   +20 tag (32 bytes)

#ifndef TRUSTLITE_SRC_SMART_SMART_H_
#define TRUSTLITE_SRC_SMART_SMART_H_

#include <array>
#include <cstdint>

#include "src/common/status.h"
#include "src/crypto/sha256.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/platform/platform.h"

namespace trustlite {

// Hardware wipe rate for the SMART/Sancus reset requirement (one word per
// cycle through the memory port).
inline constexpr uint32_t kWipeCyclesPerWord = 1;
inline uint64_t MemorySanitizeCycles(uint64_t ram_bytes) {
  return (ram_bytes / 4) * kWipeCyclesPerWord;
}

struct SmartConfig {
  uint32_t rom_base = kPromBase + 0x200;  // Attestation routine (PROM).
  uint32_t rom_end = kPromBase + 0xA00;
  uint32_t key_base = kPromBase + 0xF00;  // 32-byte key, IP-gated.
  uint32_t key_end = kPromBase + 0xF20;
  uint32_t mailbox = 0x0003'0000;         // Request/response (open RAM).
  // Pure-software variant: the ROM routine carries its own SHA-256
  // implementation instead of using the MMIO engine — the original SMART
  // cost profile (no crypto accelerator). Needs a larger ROM window and a
  // RAM staging area; key-derived staging bytes are wiped before returning.
  bool use_software_hash = false;
  uint32_t soft_scratch = 0x0003'A000;    // ~4.5 KiB staging + SHA state.
};

// ROM window large enough for the software-hash routine + tables.
inline SmartConfig SoftwareSmartConfig() {
  SmartConfig config;
  config.use_software_hash = true;
  config.rom_end = kPromBase + 0xE80;
  return config;
}

// The SMART bus access-control rule.
class SmartUnit : public ProtectionUnit {
 public:
  explicit SmartUnit(const SmartConfig& config) : config_(config) {}

  AccessResult Check(const AccessContext& ctx, uint32_t addr,
                     uint32_t width) override;
  void Reset() override { violation_ = false; }

  bool violation() const { return violation_; }
  uint32_t violation_addr() const { return violation_addr_; }

 private:
  bool InRom(uint32_t ip) const {
    return ip >= config_.rom_base && ip < config_.rom_end;
  }

  SmartConfig config_;
  bool violation_ = false;
  uint32_t violation_addr_ = 0;
};

// A complete SMART platform: the base SoC without an MPU, the SMART bus
// rule, the ROM routine and the provisioned key.
class SmartSystem {
 public:
  SmartSystem(const SmartConfig& config, const std::array<uint8_t, 32>& key);

  Platform& platform() { return platform_; }
  SmartUnit& unit() { return unit_; }
  const SmartConfig& config() const { return config_; }
  // Why the ROM routine or the key could not be put in PROM (a routine that
  // does not assemble, or a window outside PROM); OK otherwise.
  // InvokeAttestation fails while it is not OK.
  const Status& status() const { return status_; }

  // Writes an attestation request into the mailbox. The caller then points
  // the CPU at some untrusted code that jumps to rom_base (or uses
  // InvokeAttestation below).
  void WriteRequest(uint32_t nonce, uint32_t region_base, uint32_t region_end,
                    uint32_t continuation);

  // Convenience: runs a small untrusted stub that jumps to the routine, and
  // returns the produced tag. Returns false on reset/violation.
  bool InvokeAttestation(uint32_t nonce, uint32_t region_base,
                         uint32_t region_end, Sha256Digest* tag,
                         uint64_t* cycles = nullptr);

  // Host model of the expected tag.
  Sha256Digest ExpectedTag(uint32_t nonce,
                           const std::vector<uint8_t>& region_bytes) const;

  // Models SMART's reset semantics: wipes all volatile memory, resets the
  // platform, and returns the modeled cycle cost of the wipe.
  uint64_t ResetAndSanitize();

 private:
  SmartConfig config_;
  std::array<uint8_t, 32> key_;
  Platform platform_;
  SmartUnit unit_;
  Status status_;
};

// Assembles the ROM attestation routine for `config` (exposed for tests).
Result<std::vector<uint8_t>> BuildSmartRoutine(const SmartConfig& config);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_SMART_SMART_H_
