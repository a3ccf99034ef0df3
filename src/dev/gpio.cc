// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/gpio.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

Gpio::Gpio(uint32_t mmio_base) : Device("gpio", mmio_base, kMmioBlockSize) {}

void Gpio::Reset() {
  out_ = 0;
  in_ = 0;
}

AccessResult Gpio::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kGpioRegOut:
      *value = out_;
      return AccessResult::kOk;
    case kGpioRegIn:
      *value = in_;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult Gpio::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kGpioRegOut:
      out_ = value;
      out_history_.push_back(value);
      return AccessResult::kOk;
    case kGpioRegIn:
      return AccessResult::kOk;  // Read-only from the guest.
    default:
      return AccessResult::kBusError;
  }
}

void Gpio::SerializeState(std::vector<uint8_t>* out) const {
  AppendLe32(*out, out_);
  AppendLe32(*out, in_);
  AppendLe32(*out, static_cast<uint32_t>(out_history_.size()));
  for (uint32_t word : out_history_) {
    AppendLe32(*out, word);
  }
}

Status Gpio::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  uint32_t out_word = 0;
  uint32_t in_word = 0;
  uint32_t history_len = 0;
  reader.ReadU32(&out_word);
  reader.ReadU32(&in_word);
  reader.ReadU32(&history_len);
  if (!reader.ok() || reader.remaining() != size_t{history_len} * 4) {
    return InvalidArgument("gpio snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  std::vector<uint32_t> history(history_len);
  for (uint32_t& word : history) {
    reader.ReadU32(&word);
  }
  out_ = out_word;
  in_ = in_word;
  out_history_ = std::move(history);
  return OkStatus();
}

}  // namespace trustlite
