// Copyright 2026 The TrustLite Reproduction Authors.
//
// EventHub: the Platform-owned fan-out point of the observability layer.
//
// Components hold a single `EventSink*` that the Platform points at its hub
// whenever at least one sink is registered (and at nullptr otherwise — the
// zero-cost-when-disabled guarantee lives in that pointer, not here). The
// hub forwards every event to each registered sink and stamps the fields a
// device cannot know about itself: devices emit with cycle == 0 / ip == 0
// and the hub fills in the CPU's current cycle counter and (where
// meaningful) the executing instruction's address. CPU-originated events
// (instruction, trap, halt) arrive fully stamped and pass through verbatim.

#ifndef TRUSTLITE_SRC_PLATFORM_OBSERVE_HUB_H_
#define TRUSTLITE_SRC_PLATFORM_OBSERVE_HUB_H_

#include <vector>

#include "src/platform/observe/events.h"

namespace trustlite {

class Cpu;

class EventHub final : public EventSink {
 public:
  // The CPU whose cycle counter / IP stamp device-originated events.
  void BindCpu(const Cpu* cpu) { cpu_ = cpu; }

  void Add(EventSink* sink);
  void Remove(EventSink* sink);
  bool empty() const { return sinks_.empty(); }

  // True when any registered sink asks for the event class.
  bool AnyWantsInstructionEvents() const;
  bool AnyWantsMpuCheckEvents() const;
  bool AnyWantsIrqRaiseEvents() const;

  // --- EventSink (components call these through their EventSink*) ---
  bool WantsInstructionEvents() const override {
    return AnyWantsInstructionEvents();
  }
  bool WantsMpuCheckEvents() const override { return AnyWantsMpuCheckEvents(); }
  bool WantsIrqRaiseEvents() const override { return AnyWantsIrqRaiseEvents(); }
  void OnInstruction(const InsnEvent& event) override;
  void OnSleep(const SleepEvent& event) override;
  void OnTrap(const TrapEvent& event) override;
  void OnHalt(const HaltEvent& event) override;
  void OnUartTx(const UartTxEvent& event) override;
  void OnMpuFault(const MpuFaultEvent& event) override;
  void OnMpuCheck(const MpuCheckEvent& event) override;
  void OnIrqRaise(const IrqRaiseEvent& event) override;
  void OnBusError(const BusErrorEvent& event) override;
  void OnDmaTransfer(const DmaTransferEvent& event) override;
  void OnReset(const ResetEvent& event) override;

 private:
  uint64_t Cycle() const;
  uint32_t Ip() const;

  const Cpu* cpu_ = nullptr;
  std::vector<EventSink*> sinks_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_OBSERVE_HUB_H_
