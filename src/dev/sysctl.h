// Copyright 2026 The TrustLite Reproduction Authors.
//
// System control block: software exception handler table, platform reset
// request and a free-running cycle counter. Fault handlers are ordinary MMIO
// registers, so the Secure Loader can hand them to a trustlet or to the OS
// and protect the choice with EA-MPU rules — exactly how the paper lets
// trustlets "implement ISRs and hardware drivers on their own" (Sec. 6).
//
// Register map (byte offsets):
//   0x00..0x3C  HANDLER[0..15]  exception class handler addresses
//   0x40        RESET_CTRL      write 1 -> platform reset request
//   0x44        CYCLES_LO       free-running cycle counter (RO)
//   0x48        CYCLES_HI       (RO)
//   0x4C        SCRATCH         general purpose r/w word
//   0x50        FW_VERSION      monotonic anti-rollback counter: reads
//               return the highest committed firmware version; writes latch
//               only values strictly greater than the current one (the
//               hardware guarantee of mcuboot/TF-M-style NV counters).
//               Survives platform reset and snapshot/restore.

#ifndef TRUSTLITE_SRC_DEV_SYSCTL_H_
#define TRUSTLITE_SRC_DEV_SYSCTL_H_

#include <array>
#include <cstdint>

#include "src/mem/device.h"

namespace trustlite {

// Exception classes, used as indices into the handler table.
enum class ExceptionClass : uint32_t {
  kMpuFault = 0,
  kIllegalInstruction = 1,
  kBusError = 2,
  kAlignmentFault = 3,
  // 4..7 reserved.
  kSwiBase = 8,  // SWI n uses handler index kSwiBase + (n & 7).
};

inline constexpr uint32_t kSysCtlRegHandlerBase = 0x00;
inline constexpr uint32_t kSysCtlNumHandlers = 16;
inline constexpr uint32_t kSysCtlRegReset = 0x40;
inline constexpr uint32_t kSysCtlRegCyclesLo = 0x44;
inline constexpr uint32_t kSysCtlRegCyclesHi = 0x48;
inline constexpr uint32_t kSysCtlRegScratch = 0x4C;
inline constexpr uint32_t kSysCtlRegFwVersion = 0x50;

class SysCtl : public Device {
 public:
  explicit SysCtl(uint32_t mmio_base);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Tick(uint64_t cycles) override { cycle_counter_ += cycles; }
  bool WantsTick() const override { return true; }
  void Reset() override;

  // CPU-side wiring.
  uint32_t HandlerFor(ExceptionClass cls, uint32_t swi_vector = 0) const;
  bool reset_requested() const { return reset_requested_; }
  void ClearResetRequest() { reset_requested_ = false; }
  uint64_t cycle_counter() const { return cycle_counter_; }
  uint32_t fw_version() const { return fw_version_; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  std::array<uint32_t, kSysCtlNumHandlers> handlers_{};
  uint32_t scratch_ = 0;
  uint32_t fw_version_ = 0;
  uint64_t cycle_counter_ = 0;
  bool reset_requested_ = false;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_SYSCTL_H_
