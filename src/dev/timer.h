// Copyright 2026 The TrustLite Reproduction Authors.
//
// Programmable interval timer, modelled on the paper's Fig. 3 peripheral:
// a `period` register and a `handler(ISR)` register ("can be programmed to
// call a particular function pointer after a configurable number of timer
// ticks"). Because the handler and period live in MMIO, the EA-MPU decides
// who may program preemption — giving a trustlet exclusive timer access
// disables or confines the OS scheduler (Sec. 3.3).
//
// Register map:
//   0x00 CTRL    [0] enable  [1] irq enable  [2] auto-reload
//   0x04 PERIOD  countdown start value, in CPU cycles
//   0x08 COUNT   current countdown (RO)
//   0x0C HANDLER ISR address supplied to the CPU on interrupt
//   0x10 STATUS  [0] pending; write any value to acknowledge

#ifndef TRUSTLITE_SRC_DEV_TIMER_H_
#define TRUSTLITE_SRC_DEV_TIMER_H_

#include <algorithm>
#include <cstdint>

#include "src/mem/device.h"
#include "src/platform/observe/events.h"

namespace trustlite {

inline constexpr uint32_t kTimerRegCtrl = 0x00;
inline constexpr uint32_t kTimerRegPeriod = 0x04;
inline constexpr uint32_t kTimerRegCount = 0x08;
inline constexpr uint32_t kTimerRegHandler = 0x0C;
inline constexpr uint32_t kTimerRegStatus = 0x10;

inline constexpr uint32_t kTimerCtrlEnable = 1u << 0;
inline constexpr uint32_t kTimerCtrlIrqEnable = 1u << 1;
inline constexpr uint32_t kTimerCtrlAutoReload = 1u << 2;

class Timer : public Device {
 public:
  Timer(uint32_t mmio_base, int irq_line);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Tick(uint64_t cycles) override;
  bool WantsTick() const override { return true; }
  void Reset() override;

  int irq_line() const override { return irq_line_; }
  bool IrqPending() const override {
    return pending_ && (ctrl_ & kTimerCtrlIrqEnable) != 0;
  }
  uint32_t IrqHandler() const override { return handler_; }
  void IrqAck() override { pending_ = false; }
  // Tick() expires the countdown once count_ cycles have passed (at the
  // next tick when count_ is already 0).
  uint64_t CyclesUntilIrq() const override {
    constexpr uint32_t kArmed = kTimerCtrlEnable | kTimerCtrlIrqEnable;
    return (ctrl_ & kArmed) == kArmed ? std::max<uint64_t>(count_, 1)
                                      : kNoIrqDeadline;
  }

  uint64_t fire_count() const { return fire_count_; }

  // Observability: an IrqRaiseEvent each time the countdown expires and the
  // line goes pending (not when the CPU recognizes it). Null = off.
  void SetEventSink(EventSink* sink) { sink_ = sink; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  EventSink* sink_ = nullptr;
  int irq_line_;
  uint32_t ctrl_ = 0;
  uint32_t period_ = 0;
  uint64_t count_ = 0;
  uint32_t handler_ = 0;
  bool pending_ = false;
  uint64_t fire_count_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_TIMER_H_
