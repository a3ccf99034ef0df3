// Copyright 2026 The TrustLite Reproduction Authors.
//
// Structured-event taxonomy for the observability layer (DESIGN.md §12).
//
// Hardware components (CPU, secure exception engine, EA-MPU, bus, devices)
// emit typed events through a nullable `EventSink*` checked per event class
// — no std::function on the fast path, so a platform with no sink attached
// pays exactly one predictable branch per emission point. Consumers
// (ExecutionTracer, TrustletProfiler, ChromeTraceWriter) subclass EventSink
// and register through Platform::AddEventSink.
//
// Attribution rules (who an event "belongs" to):
//  * InsnEvent.ip       — address of the retired instruction.
//  * SleepEvent.ip      — address of the sleeping `wfi`.
//  * TrapEvent.subject_ip — the interrupted/faulting *subject*: the
//    instruction whose execution the exception displaced (for fetch faults
//    the jumper, not the never-executed target — mirroring the EA-MPU's
//    curr_IP semantics).
//  * UartTxEvent.ip     — IP of the instruction executing when the byte hit
//    TXDATA (stamped at emission time, not when a polling loop drains the
//    buffer). A byte written by a DMA transfer or by the exception engine's
//    state save is attributed to the instruction/subject that triggered it.
//  * MpuFaultEvent.ip / MpuCheckEvent.ip — ctx.curr_ip of the access, i.e.
//    the EA-MPU subject (for fetches: the transferring instruction).
//
// This header is intentionally dependency-light (cstdint + AccessKind) so
// that src/cpu, src/mpu, src/mem and src/dev can include it without layering
// cycles.

#ifndef TRUSTLITE_SRC_PLATFORM_OBSERVE_EVENTS_H_
#define TRUSTLITE_SRC_PLATFORM_OBSERVE_EVENTS_H_

#include <cstdint>

#include "src/mem/access.h"

namespace trustlite {

// One instruction retired (including the retiring half of a SWI, which also
// raises a TrapEvent; excluding HALT, which raises a HaltEvent instead).
struct InsnEvent {
  uint64_t cycle = 0;  // cycles() after the retire.
  uint32_t ip = 0;     // Address of the retired instruction.
  uint32_t word = 0;   // Raw encoding (for disassembly).
  uint32_t cost = 0;   // Cycles charged to this instruction (incl. waits).
};

// The core slept in `wfi` at `ip` for `cycles` cycles, ending at `cycle`:
// nothing was fetched or retired. The wfi itself retires (InsnEvent) only
// when an IRQ source is pending at issue or a sleep reaches the earliest
// IRQ deadline, so one wfi may sleep over several events when a run bound
// cuts its sleep short.
struct SleepEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;
  uint64_t cycles = 0;
};

// Exception or interrupt entry (successful or halting). Emitted by the
// exception engines after the transition completes, so `cycle` includes
// `entry_cycles` — the Sec. 5.4 quantity (21 regular / 23 secure-OS / 42
// secure-trustlet under the default CycleModel).
struct TrapEvent {
  uint64_t cycle = 0;
  uint32_t exception_class = 0;  // kExcMpuFault ... kExcSwiBase + n.
  uint32_t handler = 0;          // First ISR instruction; 0 when halted.
  uint32_t fault_addr = 0;
  uint32_t resume_ip = 0;        // Where execution should continue.
  uint32_t subject_ip = 0;       // Interrupted/faulting subject (see above).
  uint32_t entry_cycles = 0;     // Engine entry cost charged to the subject.
  uint32_t trustlet_entry = 0;   // Entry vector of the interrupted trustlet
                                 // (valid when trustlet_path).
  bool interrupt = false;        // Hardware IRQ (vs fault / SWI).
  bool trustlet_path = false;    // Secure engine performed a full state save.
  bool halted = false;           // Entry failed; the CPU halted.
};

// CPU halt — clean HALT retire (trap == false, cost = the HALT instruction's
// cycles) or an unrecoverable trap (trap == true; a TrapEvent with
// halted == true precedes it when an exception engine was involved).
struct HaltEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;
  uint32_t cost = 0;
  bool trap = false;
  uint32_t trap_class = 0;
};

// One byte reached the UART TXDATA register. `cycle`/`ip` are stamped by the
// platform hub at emission time (the device itself knows neither).
struct UartTxEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;
  uint8_t byte = 0;
};

// EA-MPU denied an access (same condition that latches the fault registers,
// including denials of execution-aware DMA probes).
struct MpuFaultEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;  // ctx.curr_ip — the subject of the denied access.
  uint32_t addr = 0;
  AccessKind kind = AccessKind::kRead;
};

// EA-MPU rule-hit telemetry: one event per Check() when a sink asks for it
// (WantsMpuCheckEvents). High volume — off unless requested.
struct MpuCheckEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;
  uint32_t addr = 0;
  AccessKind kind = AccessKind::kRead;
  int subject = -1;  // Subject region index, -1 = unprotected code.
  bool allowed = false;
};

// A device raised its interrupt line (e.g. timer countdown expired). Emitted
// when the line goes pending, not when the CPU recognizes it — the gap
// between the two is the interrupt latency visible in a trace.
struct IrqRaiseEvent {
  uint64_t cycle = 0;
  int line = -1;
  uint32_t handler = 0;
};

// Bus-level access failure: alignment fault, unmapped address, or a device
// register rejecting the access. Guest/engine paths only (host debug
// accesses are not architectural events).
struct BusErrorEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;  // ctx.curr_ip.
  uint32_t addr = 0;
  AccessKind kind = AccessKind::kRead;
};

// A DMA transfer completed or aborted (status after RunTransfer).
struct DmaTransferEvent {
  uint64_t cycle = 0;
  uint32_t ip = 0;  // Instruction whose CTRL write started the transfer.
  uint32_t src = 0;
  uint32_t dst = 0;
  uint32_t len = 0;
  bool faulted = false;
};

// Platform::HardReset about to execute (device/CPU state still intact).
struct ResetEvent {
  uint64_t cycle = 0;
};

// Listener interface. Every handler is a no-op by default; the Wants*
// predicates gate the high-frequency classes: a component's per-instruction
// (or per-check) pointer stays null unless some attached sink asks, so the
// hot path is untouched by sinks that only care about rare events.
class EventSink {
 public:
  virtual ~EventSink() = default;

  // Static interest flags, sampled when the sink is (de)attached.
  virtual bool WantsInstructionEvents() const { return false; }
  virtual bool WantsMpuCheckEvents() const { return false; }
  // IrqRaiseEvents are the only events raised inside a device tick, so
  // their cycle stamps are exact only while the bus ticks devices after
  // every instruction. The platform keeps ticks lazy (bus.h) unless an
  // attached sink answers true here; a sink that answers false receives no
  // IrqRaiseEvents at all. Opt-out, so sinks that never thought about it
  // keep exact stamps.
  virtual bool WantsIrqRaiseEvents() const { return true; }

  virtual void OnInstruction(const InsnEvent&) {}
  virtual void OnSleep(const SleepEvent&) {}
  virtual void OnTrap(const TrapEvent&) {}
  virtual void OnHalt(const HaltEvent&) {}
  virtual void OnUartTx(const UartTxEvent&) {}
  virtual void OnMpuFault(const MpuFaultEvent&) {}
  virtual void OnMpuCheck(const MpuCheckEvent&) {}
  virtual void OnIrqRaise(const IrqRaiseEvent&) {}
  virtual void OnBusError(const BusErrorEvent&) {}
  virtual void OnDmaTransfer(const DmaTransferEvent&) {}
  virtual void OnReset(const ResetEvent&) {}
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_OBSERVE_EVENTS_H_
