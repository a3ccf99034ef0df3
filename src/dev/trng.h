// Copyright 2026 The TrustLite Reproduction Authors.
// True-RNG peripheral model (deterministic xoshiro stream, host-seeded).
// Supplies the nonces of the trusted-IPC handshake (Sec. 4.2.2).
//
// Register map:  0x00 VALUE (RO, new 32-bit value per read).

#ifndef TRUSTLITE_SRC_DEV_TRNG_H_
#define TRUSTLITE_SRC_DEV_TRNG_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/mem/device.h"

namespace trustlite {

inline constexpr uint32_t kTrngRegValue = 0x00;

class Trng : public Device {
 public:
  Trng(uint32_t mmio_base, uint64_t seed);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;

  // Warm-boot provisioning: moves a cloned node's stream onto its own
  // per-device seed (snapshot restore otherwise resumes the donor stream).
  void Reseed(uint64_t seed) { rng_.Reseed(seed); }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  Xoshiro256 rng_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_TRNG_H_
