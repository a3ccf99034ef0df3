// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/sysctl.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

SysCtl::SysCtl(uint32_t mmio_base)
    : Device("sysctl", mmio_base, kMmioBlockSize) {}

void SysCtl::Reset() {
  handlers_.fill(0);
  scratch_ = 0;
  reset_requested_ = false;
  // The cycle counter keeps running across reset (free-running hardware
  // counter), which lets benches measure reset cost itself. The FW_VERSION
  // anti-rollback counter models non-volatile monotonic hardware: reset
  // must never hand an attacker a fresh rollback window.
}

AccessResult SysCtl::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  if (offset < kSysCtlRegHandlerBase + kSysCtlNumHandlers * 4) {
    *value = handlers_[offset / 4];
    return AccessResult::kOk;
  }
  switch (offset) {
    case kSysCtlRegReset:
      *value = 0;
      return AccessResult::kOk;
    case kSysCtlRegCyclesLo:
      *value = static_cast<uint32_t>(cycle_counter_);
      return AccessResult::kOk;
    case kSysCtlRegCyclesHi:
      *value = static_cast<uint32_t>(cycle_counter_ >> 32);
      return AccessResult::kOk;
    case kSysCtlRegScratch:
      *value = scratch_;
      return AccessResult::kOk;
    case kSysCtlRegFwVersion:
      *value = fw_version_;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult SysCtl::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  if (offset < kSysCtlRegHandlerBase + kSysCtlNumHandlers * 4) {
    handlers_[offset / 4] = value;
    return AccessResult::kOk;
  }
  switch (offset) {
    case kSysCtlRegReset:
      if ((value & 1) != 0) {
        reset_requested_ = true;
      }
      return AccessResult::kOk;
    case kSysCtlRegCyclesLo:
    case kSysCtlRegCyclesHi:
      return AccessResult::kOk;  // Read-only.
    case kSysCtlRegScratch:
      scratch_ = value;
      return AccessResult::kOk;
    case kSysCtlRegFwVersion:
      // Hardware-monotonic: only strictly increasing values latch. A write
      // of anything <= the current counter is silently ignored, so no bus
      // master — not even a compromised OS — can open a rollback window.
      if (value > fw_version_) {
        fw_version_ = value;
      }
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

uint32_t SysCtl::HandlerFor(ExceptionClass cls, uint32_t swi_vector) const {
  uint32_t index = static_cast<uint32_t>(cls);
  if (cls == ExceptionClass::kSwiBase) {
    index += swi_vector & 7;
  }
  return handlers_[index];
}

void SysCtl::SerializeState(std::vector<uint8_t>* out) const {
  for (uint32_t handler : handlers_) {
    AppendLe32(*out, handler);
  }
  AppendLe32(*out, scratch_);
  AppendLe32(*out, fw_version_);
  AppendLe64(*out, cycle_counter_);
  out->push_back(reset_requested_ ? 1 : 0);
}

Status SysCtl::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  std::array<uint32_t, kSysCtlNumHandlers> handlers{};
  uint32_t scratch = 0;
  uint32_t fw_version = 0;
  uint64_t cycle_counter = 0;
  uint8_t reset_requested = 0;
  for (uint32_t& handler : handlers) {
    reader.ReadU32(&handler);
  }
  reader.ReadU32(&scratch);
  reader.ReadU32(&fw_version);
  reader.ReadU64(&cycle_counter);
  reader.ReadU8(&reset_requested);
  if (!reader.Done()) {
    return InvalidArgument("sysctl snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  handlers_ = handlers;
  scratch_ = scratch;
  fw_version_ = fw_version;
  cycle_counter_ = cycle_counter;
  reset_requested_ = reset_requested != 0;
  return OkStatus();
}

}  // namespace trustlite
