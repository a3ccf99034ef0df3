// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/timer.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

Timer::Timer(uint32_t mmio_base, int irq)
    : Device("timer", mmio_base, kMmioBlockSize), irq_line_(irq) {}

void Timer::Reset() {
  ctrl_ = 0;
  period_ = 0;
  count_ = 0;
  handler_ = 0;
  pending_ = false;
  fire_count_ = 0;
}

void Timer::Tick(uint64_t cycles) {
  if ((ctrl_ & kTimerCtrlEnable) == 0) {
    return;
  }
  while (cycles > 0) {
    if (count_ > cycles) {
      count_ -= cycles;
      return;
    }
    cycles -= count_;
    // Expired.
    pending_ = true;
    ++fire_count_;
    if (sink_ != nullptr) {
      IrqRaiseEvent event;  // Cycle stamped by the hub.
      event.line = irq_line_;
      event.handler = handler_;
      sink_->OnIrqRaise(event);
    }
    if ((ctrl_ & kTimerCtrlAutoReload) != 0 && period_ > 0) {
      count_ = period_;
    } else {
      ctrl_ &= ~kTimerCtrlEnable;
      count_ = 0;
      return;
    }
  }
}

AccessResult Timer::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kTimerRegCtrl:
      *value = ctrl_;
      return AccessResult::kOk;
    case kTimerRegPeriod:
      *value = period_;
      return AccessResult::kOk;
    case kTimerRegCount:
      *value = static_cast<uint32_t>(count_);
      return AccessResult::kOk;
    case kTimerRegHandler:
      *value = handler_;
      return AccessResult::kOk;
    case kTimerRegStatus:
      *value = pending_ ? 1 : 0;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult Timer::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kTimerRegCtrl:
      ctrl_ = value & (kTimerCtrlEnable | kTimerCtrlIrqEnable | kTimerCtrlAutoReload);
      if ((ctrl_ & kTimerCtrlEnable) != 0 && count_ == 0) {
        count_ = period_;
      }
      return AccessResult::kOk;
    case kTimerRegPeriod:
      period_ = value;
      return AccessResult::kOk;
    case kTimerRegCount:
      return AccessResult::kOk;  // Read-only.
    case kTimerRegHandler:
      handler_ = value;
      return AccessResult::kOk;
    case kTimerRegStatus:
      pending_ = false;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

void Timer::SerializeState(std::vector<uint8_t>* out) const {
  AppendLe32(*out, ctrl_);
  AppendLe32(*out, period_);
  AppendLe64(*out, count_);
  AppendLe32(*out, handler_);
  out->push_back(pending_ ? 1 : 0);
  AppendLe64(*out, fire_count_);
}

Status Timer::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  uint32_t ctrl = 0;
  uint32_t period = 0;
  uint64_t count = 0;
  uint32_t handler = 0;
  uint8_t pending = 0;
  uint64_t fire_count = 0;
  reader.ReadU32(&ctrl);
  reader.ReadU32(&period);
  reader.ReadU64(&count);
  reader.ReadU32(&handler);
  reader.ReadU8(&pending);
  reader.ReadU64(&fire_count);
  if (!reader.Done()) {
    return InvalidArgument("timer snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  ctrl_ = ctrl;
  period_ = period;
  count_ = count;
  handler_ = handler;
  pending_ = pending != 0;
  fire_count_ = fire_count;
  return OkStatus();
}

}  // namespace trustlite
