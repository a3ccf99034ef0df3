// Copyright 2026 The TrustLite Reproduction Authors.
// SHA-256 (FIPS 180-4), implemented from scratch. Used by the Secure Loader
// for trustlet measurement, by the SHA MMIO accelerator, and by the trusted
// IPC token derivation (Sec. 4.2.2: tk = hash(A, B, NA, NB)).

#ifndef TRUSTLITE_SRC_CRYPTO_SHA256_H_
#define TRUSTLITE_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace trustlite {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

// Incremental interface.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t len);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }
  Sha256Digest Finish();

  // Mid-stream hasher state, exported for the platform snapshot (the SHA
  // MMIO accelerator may be checkpointed between INIT and FINALIZE). Plain
  // value copies of the incremental state; restoring reproduces the exact
  // digest the uninterrupted computation would have produced.
  struct State {
    uint32_t h[8];
    uint8_t buffer[kSha256BlockSize];
    uint64_t buffer_len;
    uint64_t total_len;
  };
  State SaveState() const {
    State s{};
    for (int i = 0; i < 8; ++i) s.h[i] = state_[i];
    for (size_t i = 0; i < kSha256BlockSize; ++i) s.buffer[i] = buffer_[i];
    s.buffer_len = buffer_len_;
    s.total_len = total_len_;
    return s;
  }
  void RestoreState(const State& s) {
    for (int i = 0; i < 8; ++i) state_[i] = s.h[i];
    for (size_t i = 0; i < kSha256BlockSize; ++i) buffer_[i] = s.buffer[i];
    buffer_len_ = static_cast<size_t>(s.buffer_len);
    total_len_ = s.total_len;
  }

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  // Zeroed once: SaveState exports all 64 bytes, including the tail past
  // buffer_len_, so snapshot bytes must not depend on heap contents.
  uint8_t buffer_[kSha256BlockSize]{};
  size_t buffer_len_;
  uint64_t total_len_;
};

// One-shot convenience.
Sha256Digest Sha256Hash(const uint8_t* data, size_t len);
Sha256Digest Sha256Hash(const std::vector<uint8_t>& data);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_CRYPTO_SHA256_H_
