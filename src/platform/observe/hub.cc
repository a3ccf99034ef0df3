// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/observe/hub.h"

#include <algorithm>

#include "src/cpu/cpu.h"

namespace trustlite {

void EventHub::Add(EventSink* sink) {
  if (sink == nullptr || sink == this) {
    return;
  }
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) {
    sinks_.push_back(sink);
  }
}

void EventHub::Remove(EventSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

bool EventHub::AnyWantsInstructionEvents() const {
  for (const EventSink* sink : sinks_) {
    if (sink->WantsInstructionEvents()) {
      return true;
    }
  }
  return false;
}

bool EventHub::AnyWantsMpuCheckEvents() const {
  for (const EventSink* sink : sinks_) {
    if (sink->WantsMpuCheckEvents()) {
      return true;
    }
  }
  return false;
}

bool EventHub::AnyWantsIrqRaiseEvents() const {
  for (const EventSink* sink : sinks_) {
    if (sink->WantsIrqRaiseEvents()) {
      return true;
    }
  }
  return false;
}

uint64_t EventHub::Cycle() const { return cpu_ != nullptr ? cpu_->cycles() : 0; }

uint32_t EventHub::Ip() const { return cpu_ != nullptr ? cpu_->ip() : 0; }

void EventHub::OnInstruction(const InsnEvent& event) {
  for (EventSink* sink : sinks_) {
    if (sink->WantsInstructionEvents()) {
      sink->OnInstruction(event);
    }
  }
}

void EventHub::OnSleep(const SleepEvent& event) {
  for (EventSink* sink : sinks_) {
    sink->OnSleep(event);
  }
}

void EventHub::OnTrap(const TrapEvent& event) {
  for (EventSink* sink : sinks_) {
    sink->OnTrap(event);
  }
}

void EventHub::OnHalt(const HaltEvent& event) {
  for (EventSink* sink : sinks_) {
    sink->OnHalt(event);
  }
}

void EventHub::OnUartTx(const UartTxEvent& event) {
  UartTxEvent stamped = event;
  stamped.cycle = Cycle();
  stamped.ip = Ip();
  for (EventSink* sink : sinks_) {
    sink->OnUartTx(stamped);
  }
}

void EventHub::OnMpuFault(const MpuFaultEvent& event) {
  MpuFaultEvent stamped = event;  // ip set by the MPU (ctx.curr_ip).
  stamped.cycle = Cycle();
  for (EventSink* sink : sinks_) {
    sink->OnMpuFault(stamped);
  }
}

void EventHub::OnMpuCheck(const MpuCheckEvent& event) {
  MpuCheckEvent stamped = event;
  stamped.cycle = Cycle();
  for (EventSink* sink : sinks_) {
    if (sink->WantsMpuCheckEvents()) {
      sink->OnMpuCheck(stamped);
    }
  }
}

void EventHub::OnIrqRaise(const IrqRaiseEvent& event) {
  IrqRaiseEvent stamped = event;
  stamped.cycle = Cycle();
  for (EventSink* sink : sinks_) {
    if (sink->WantsIrqRaiseEvents()) {
      sink->OnIrqRaise(stamped);
    }
  }
}

void EventHub::OnBusError(const BusErrorEvent& event) {
  BusErrorEvent stamped = event;  // ip set by the bus (ctx.curr_ip).
  stamped.cycle = Cycle();
  for (EventSink* sink : sinks_) {
    sink->OnBusError(stamped);
  }
}

void EventHub::OnDmaTransfer(const DmaTransferEvent& event) {
  DmaTransferEvent stamped = event;
  stamped.cycle = Cycle();
  stamped.ip = Ip();
  for (EventSink* sink : sinks_) {
    sink->OnDmaTransfer(stamped);
  }
}

void EventHub::OnReset(const ResetEvent& event) {
  for (EventSink* sink : sinks_) {
    sink->OnReset(event);
  }
}

}  // namespace trustlite
