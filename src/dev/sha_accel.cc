// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/sha_accel.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

ShaAccel::ShaAccel(uint32_t mmio_base, uint32_t cycles_per_block)
    : Device("sha256", mmio_base, kMmioBlockSize),
      cycles_per_block_(cycles_per_block) {}

void ShaAccel::Reset() {
  hasher_.Reset();
  digest_valid_ = false;
  absorbed_bytes_ = 0;
}

uint32_t ShaAccel::WaitStates(uint32_t offset, uint32_t width,
                              AccessKind kind) const {
  (void)width;
  if (kind != AccessKind::kWrite || cycles_per_block_ == 0) {
    return 0;
  }
  // The engine stalls when an absorb completes a 64-byte block, and on
  // FINALIZE (padding block).
  if (offset == kShaRegDataIn) {
    return (absorbed_bytes_ % kSha256BlockSize) + 4 >= kSha256BlockSize
               ? cycles_per_block_
               : 0;
  }
  if (offset == kShaRegByteIn) {
    return (absorbed_bytes_ % kSha256BlockSize) + 1 >= kSha256BlockSize
               ? cycles_per_block_
               : 0;
  }
  if (offset == kShaRegCtrl) {
    return cycles_per_block_;
  }
  return 0;
}

AccessResult ShaAccel::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  if (offset >= kShaRegDigest && offset < kShaRegDigest + 32) {
    const uint32_t i = (offset - kShaRegDigest);
    // Digest exposed as big-endian words, matching FIPS output ordering.
    *value = (static_cast<uint32_t>(digest_[i]) << 24) |
             (static_cast<uint32_t>(digest_[i + 1]) << 16) |
             (static_cast<uint32_t>(digest_[i + 2]) << 8) |
             static_cast<uint32_t>(digest_[i + 3]);
    return AccessResult::kOk;
  }
  if (offset >= kShaRegDigestLe && offset < kShaRegDigestLe + 32) {
    const uint32_t i = (offset - kShaRegDigestLe);
    *value = (static_cast<uint32_t>(digest_[i + 3]) << 24) |
             (static_cast<uint32_t>(digest_[i + 2]) << 16) |
             (static_cast<uint32_t>(digest_[i + 1]) << 8) |
             static_cast<uint32_t>(digest_[i]);
    return AccessResult::kOk;
  }
  switch (offset) {
    case kShaRegCtrl:
    case kShaRegDataIn:
    case kShaRegByteIn:
      *value = 0;
      return AccessResult::kOk;
    case kShaRegStatus:
      *value = digest_valid_ ? 1 : 0;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult ShaAccel::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kShaRegCtrl:
      if (value == kShaCtrlInit) {
        hasher_.Reset();
        digest_valid_ = false;
        absorbed_bytes_ = 0;
      } else if (value == kShaCtrlFinalize) {
        digest_ = hasher_.Finish();
        digest_valid_ = true;
      }
      return AccessResult::kOk;
    case kShaRegDataIn: {
      const uint8_t bytes[4] = {
          static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
          static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
      hasher_.Update(bytes, 4);
      absorbed_bytes_ += 4;
      return AccessResult::kOk;
    }
    case kShaRegByteIn: {
      const uint8_t byte = static_cast<uint8_t>(value);
      hasher_.Update(&byte, 1);
      ++absorbed_bytes_;
      return AccessResult::kOk;
    }
    case kShaRegStatus:
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

void ShaAccel::SerializeState(std::vector<uint8_t>* out) const {
  // cycles_per_block_ is construction-time configuration, not state.
  AppendLe64(*out, absorbed_bytes_);
  const Sha256::State hasher = hasher_.SaveState();
  for (uint32_t word : hasher.h) {
    AppendLe32(*out, word);
  }
  out->insert(out->end(), hasher.buffer, hasher.buffer + kSha256BlockSize);
  AppendLe64(*out, hasher.buffer_len);
  AppendLe64(*out, hasher.total_len);
  out->insert(out->end(), digest_.begin(), digest_.end());
  out->push_back(digest_valid_ ? 1 : 0);
}

Status ShaAccel::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  uint64_t absorbed_bytes = 0;
  Sha256::State hasher{};
  Sha256Digest digest{};
  uint8_t digest_valid = 0;
  reader.ReadU64(&absorbed_bytes);
  for (uint32_t& word : hasher.h) {
    reader.ReadU32(&word);
  }
  reader.ReadBytes(hasher.buffer, kSha256BlockSize);
  reader.ReadU64(&hasher.buffer_len);
  reader.ReadU64(&hasher.total_len);
  reader.ReadBytes(digest.data(), digest.size());
  reader.ReadU8(&digest_valid);
  if (!reader.Done() || hasher.buffer_len > kSha256BlockSize) {
    return InvalidArgument("sha snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  absorbed_bytes_ = absorbed_bytes;
  hasher_.RestoreState(hasher);
  digest_ = digest;
  digest_valid_ = digest_valid != 0;
  return OkStatus();
}

}  // namespace trustlite
