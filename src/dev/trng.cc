// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/trng.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

Trng::Trng(uint32_t mmio_base, uint64_t seed)
    : Device("trng", mmio_base, kMmioBlockSize), rng_(seed) {}

AccessResult Trng::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4 || offset != kTrngRegValue) {
    return AccessResult::kBusError;
  }
  *value = rng_.Next32();
  return AccessResult::kOk;
}

AccessResult Trng::Write(uint32_t offset, uint32_t width, uint32_t value) {
  (void)offset;
  (void)width;
  (void)value;
  return AccessResult::kBusError;
}

void Trng::SerializeState(std::vector<uint8_t>* out) const {
  // The stream cursor *is* the device state: restoring it resumes the
  // value sequence exactly where the checkpoint interrupted it.
  for (uint64_t word : rng_.state()) {
    AppendLe64(*out, word);
  }
}

Status Trng::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  std::array<uint64_t, 4> state{};
  for (uint64_t& word : state) {
    reader.ReadU64(&word);
  }
  if (!reader.Done()) {
    return InvalidArgument("trng snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  rng_.set_state(state);
  return OkStatus();
}

}  // namespace trustlite
