// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/uart.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

Uart::Uart(uint32_t mmio_base) : Device("uart", mmio_base, kMmioBlockSize) {}

void Uart::Reset() {
  // Output is host-side capture; keep it across reset so tests can observe
  // pre-reset prints. Input queue is hardware state and clears.
  input_.clear();
}

void Uart::PushInput(const std::string& data) {
  for (const char c : data) {
    input_.push_back(static_cast<uint8_t>(c));
  }
}

AccessResult Uart::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kUartRegTxData:
      *value = 0;
      return AccessResult::kOk;
    case kUartRegStatus:
      *value = 1u | (input_.empty() ? 0u : 2u);
      return AccessResult::kOk;
    case kUartRegRxData:
      if (input_.empty()) {
        *value = 0;
      } else {
        *value = input_.front();
        input_.pop_front();
      }
      return AccessResult::kOk;
    case kUartRegRxCount:
      *value = static_cast<uint32_t>(input_.size());
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult Uart::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kUartRegTxData:
      output_.push_back(static_cast<char>(value & 0xFF));
      if (sink_ != nullptr) {
        UartTxEvent event;  // Cycle/IP stamped by the hub.
        event.byte = static_cast<uint8_t>(value & 0xFF);
        sink_->OnUartTx(event);
      }
      return AccessResult::kOk;
    case kUartRegStatus:
    case kUartRegRxData:
    case kUartRegRxCount:
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

void Uart::SerializeState(std::vector<uint8_t>* out) const {
  // The host-visible output capture is architectural for our purposes: it
  // feeds FleetNode::StateDigest, so a restored node must reproduce it.
  AppendLe32(*out, static_cast<uint32_t>(output_.size()));
  out->insert(out->end(), output_.begin(), output_.end());
  AppendLe32(*out, static_cast<uint32_t>(input_.size()));
  out->insert(out->end(), input_.begin(), input_.end());
}

Status Uart::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  uint32_t out_len = 0;
  std::string output;
  uint32_t in_len = 0;
  std::vector<uint8_t> input;
  reader.ReadU32(&out_len);
  reader.ReadString(&output, out_len);
  reader.ReadU32(&in_len);
  reader.ReadBytes(&input, in_len);
  if (!reader.Done()) {
    return InvalidArgument("uart snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  output_ = std::move(output);
  input_.assign(input.begin(), input.end());
  return OkStatus();
}

}  // namespace trustlite
