// Copyright 2026 The TrustLite Reproduction Authors.
//
// Bus device interface. Everything addressable — RAM, PROM, DRAM and every
// MMIO peripheral — implements Device. Matching the paper's platform model,
// peripheral access *is* memory access; the EA-MPU protects MMIO ranges
// exactly like RAM (paper Sec. 3.3).

#ifndef TRUSTLITE_SRC_MEM_DEVICE_H_
#define TRUSTLITE_SRC_MEM_DEVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mem/access.h"

namespace trustlite {

// Device::CyclesUntilIrq() of a source that cannot raise its IRQ on its own.
inline constexpr uint64_t kNoIrqDeadline = UINT64_MAX;

class Device {
 public:
  Device(std::string name, uint32_t base, uint32_t size)
      : name_(std::move(name)), base_(base), size_(size) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }
  uint32_t base() const { return base_; }
  uint32_t size() const { return size_; }
  // Exclusive end, in 64 bits: a device whose range touches the top of the
  // 32-bit address space must not wrap `base + size` back to a small value
  // (that would make Contains() and the bus byte-run helpers mis-route).
  uint64_t end() const { return base_ + uint64_t{size_}; }
  bool Contains(uint32_t addr) const { return addr >= base_ && addr < end(); }

  // Guest-visible access at `offset` from base(). `width` is 1 or 4; word
  // accesses are already alignment-checked by the bus.
  virtual AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) = 0;
  virtual AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) = 0;

  // Wait states the access inserts on top of the CPU's base memory-access
  // cost. Models off-chip memory latency (external DRAM) and busy hardware
  // engines (e.g. a hash engine digesting a block). Queried by the bus for
  // the access *about to be performed*.
  virtual uint32_t WaitStates(uint32_t offset, uint32_t width,
                              AccessKind kind) const {
    (void)offset;
    (void)width;
    (void)kind;
    return 0;
  }

  // Advances device-local time by `cycles` CPU cycles (timers etc.).
  virtual void Tick(uint64_t cycles) { (void)cycles; }

  // True when the device keeps device-local time and must receive Tick()
  // calls. The bus only dispatches Tick() to devices that return true, so
  // purely combinational devices (RAM, UART, GPIO, ...) are skipped on the
  // per-instruction tick path. Must be constant for a device's lifetime.
  virtual bool WantsTick() const { return false; }

  // True for memory-backed devices (RAM/PROM): a guest or host store into
  // such a device may overwrite instructions, so the bus bumps its memory
  // generation counter (consumed by the CPU's fused groups).
  virtual bool IsMemory() const { return false; }

  // Stable host pointer to the device's backing bytes at `offset`, or null
  // when the device has no byte-addressable backing store (MMIO). The
  // pointer stays valid for the device's lifetime and observes in-place
  // content mutations; callers (the CPU's superinstruction cache) use it to
  // revalidate cached instruction words without a bus transaction.
  virtual const uint8_t* HostSpan(uint32_t offset, uint32_t len) const {
    (void)offset;
    (void)len;
    return nullptr;
  }

  // Mutable variant of HostSpan, non-null only when the device additionally
  // accepts guest *stores* over the whole span (RAM yes, PROM no — PROM's
  // backing bytes are host-writable but guest writes are bus errors, so a
  // store fast path must never bypass that rejection). Same lifetime and
  // aliasing contract as HostSpan.
  virtual uint8_t* HostMutableSpan(uint32_t offset, uint32_t len) {
    (void)offset;
    (void)len;
    return nullptr;
  }

  // Interrupt interface. A device on an IRQ line reports pending state and
  // its programmed handler address (device-provided vectoring: the paper's
  // timer exposes a `handler(ISR)` MMIO register, Fig. 3).
  virtual int irq_line() const { return -1; }
  virtual bool IrqPending() const { return false; }
  virtual uint32_t IrqHandler() const { return 0; }
  // Called by the CPU when it takes the interrupt.
  virtual void IrqAck() {}
  // Cycles of Tick() after which IrqPending() becomes true, or
  // kNoIrqDeadline when ticking alone never raises the line. A `wfi` sleeps
  // straight to the earliest deadline its IRQ sources report, and the busy
  // run loop relies on it too: once a poll finds no IRQ pending, it polls
  // again only at that deadline or after a bus access to a non-memory
  // device (Bus::device_generation). So a source whose Tick() can raise its
  // line must report when, and a line raised any other way than by Tick()
  // or a bus access would be missed.
  virtual uint64_t CyclesUntilIrq() const { return kNoIrqDeadline; }

  // Restores power-on state. Backing memory contents are preserved
  // (TrustLite does *not* require volatile memory to be purged on reset —
  // the Secure Loader re-establishes protection instead; Sec. 3.5).
  virtual void Reset() {}

  // --- Snapshot hook (DESIGN.md §14, docs/SNAPSHOT_FORMAT.md) ---
  // Appends the device's architectural state *beyond* any memory backing
  // store (memory contents travel in their own snapshot chunks) in the
  // device's byte-stable little-endian layout. Devices with no state beyond
  // their backing store append nothing.
  void SaveState(std::vector<uint8_t>* out) {
    SerializeState(out);
    ++snapshot_generation_;
  }
  // Applies a payload produced by SaveState. Implementations parse the
  // whole payload (rejecting trailing or missing bytes) before mutating any
  // field, so a failed load leaves the device untouched.
  Status LoadState(const uint8_t* data, size_t size) {
    const Status status = RestoreState(data, size, /*commit=*/true);
    if (status.ok()) {
      ++snapshot_generation_;
    }
    return status;
  }
  // Parses a payload exactly as LoadState would, without applying it, so a
  // whole-platform restore can reject a malformed payload of any device
  // before it mutates the first one.
  Status CheckState(const uint8_t* data, size_t size) {
    return RestoreState(data, size, /*commit=*/false);
  }

  // Count of snapshot events (saves + applied restores) on this device.
  // Host-side telemetry stamping which snapshot epoch the state belongs to;
  // cleared by platform reset (Bus::ResetDevices) along with the rest of
  // the device's power-on state.
  uint64_t snapshot_generation() const { return snapshot_generation_; }
  void ClearSnapshotGeneration() { snapshot_generation_ = 0; }

 protected:
  // Virtual halves of the snapshot hook; see SaveState/LoadState for the
  // contract. RestoreState validates the whole payload and, only when
  // `commit` is set, applies it. Default: stateless device (empty payload
  // in, empty out).
  virtual void SerializeState(std::vector<uint8_t>* out) const { (void)out; }
  virtual Status RestoreState(const uint8_t* data, size_t size, bool commit) {
    (void)data;
    (void)commit;
    if (size != 0) {
      return InvalidArgument("device '" + name_ +
                             "' carries no snapshot state but payload is "
                             "non-empty");
    }
    return OkStatus();
  }

 private:
  std::string name_;
  uint32_t base_;
  uint32_t size_;
  uint64_t snapshot_generation_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_MEM_DEVICE_H_
