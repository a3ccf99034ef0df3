// Copyright 2026 The TrustLite Reproduction Authors.
//
// SHA-256 MMIO accelerator — the "Crypto" block of the paper's Fig. 1.
// FIFO-fed on purpose: a DMA engine would bypass the EA-MPU (the paper
// explicitly defers DMA-capable devices to future work, Sec. 6), so guests
// stream data words through a register and every byte hashed was first
// readable by the calling subject under the MPU rules.
//
// Register map:
//   0x00 CTRL     write 1 = INIT, 2 = FINALIZE
//   0x04 DATA_IN  absorb 4 bytes (little-endian)
//   0x08 BYTE_IN  absorb 1 byte (low 8 bits)
//   0x0C STATUS   [0] digest valid
//   0x10..0x2C    DIGEST[0..7] (RO, big-endian words as in FIPS 180-4)
//   0x30..0x4C    DIGEST_LE[0..7] (RO, little-endian byte order: word i ==
//                 a 32-bit load of digest bytes [4i, 4i+4) — convenient for
//                 comparing against digests stored in RAM, e.g. the
//                 Trustlet Table measurement column)

#ifndef TRUSTLITE_SRC_DEV_SHA_ACCEL_H_
#define TRUSTLITE_SRC_DEV_SHA_ACCEL_H_

#include <cstdint>

#include "src/crypto/sha256.h"
#include "src/mem/device.h"

namespace trustlite {

inline constexpr uint32_t kShaRegCtrl = 0x00;
inline constexpr uint32_t kShaRegDataIn = 0x04;
inline constexpr uint32_t kShaRegByteIn = 0x08;
inline constexpr uint32_t kShaRegStatus = 0x0C;
inline constexpr uint32_t kShaRegDigest = 0x10;
inline constexpr uint32_t kShaRegDigestLe = 0x30;

inline constexpr uint32_t kShaCtrlInit = 1;
inline constexpr uint32_t kShaCtrlFinalize = 2;

class ShaAccel : public Device {
 public:
  // `cycles_per_block` models the engine's compression-function latency: a
  // write that completes a 64-byte block (and the FINALIZE command, which
  // always processes the padding block) stalls the bus for that many
  // cycles. 0 = fully pipelined engine. This is the knob for the paper's
  // future-work question on crypto-accelerator impact (Sec. 9), exercised
  // by bench_crypto_accel.
  explicit ShaAccel(uint32_t mmio_base, uint32_t cycles_per_block = 0);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  uint32_t WaitStates(uint32_t offset, uint32_t width,
                      AccessKind kind) const override;
  void Reset() override;

  void set_cycles_per_block(uint32_t cycles) { cycles_per_block_ = cycles; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  uint32_t cycles_per_block_;
  uint64_t absorbed_bytes_ = 0;
  Sha256 hasher_;
  Sha256Digest digest_{};
  bool digest_valid_ = false;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_SHA_ACCEL_H_
