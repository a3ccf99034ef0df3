// Copyright 2026 The TrustLite Reproduction Authors.
// Memory devices: on-chip SRAM, PROM (guest-read-only boot memory) and the
// external-DRAM model (identical to RAM functionally; separated so layouts
// and benches can distinguish on-chip vs off-chip placement).

#ifndef TRUSTLITE_SRC_MEM_MEMORY_H_
#define TRUSTLITE_SRC_MEM_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mem/device.h"

namespace trustlite {

// Granularity of a Ram's write map; the snapshot page (kSnapshotPageSize)
// is the same size, so the snapshot walk visits whole marked pages.
inline constexpr uint32_t kRamPageSize = 4096;

// Plain byte-addressable RAM. `wait_states` models access latency beyond
// the CPU's base memory cost (0 for on-chip SRAM, >0 for external DRAM).
//
// Pages on demand (DESIGN.md §15): the bytes live in one anonymous private
// mapping that the OS zero-fills page by page on first touch, so a memory
// costs host RAM only for the pages that were touched. Beside it a write
// map keeps one entry per kRamPageSize page, set by every path that can
// change the bytes: Write, LoadBytes, Fill with a non-zero value and
// HostMutableSpan. A page that was never marked was never written and reads
// zero. Marks are never cleared while the Ram exists.
class Ram : public Device {
 public:
  Ram(std::string name, uint32_t base, uint32_t size,
      uint32_t wait_states = 0);
  ~Ram() override;

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  uint32_t WaitStates(uint32_t offset, uint32_t width,
                      AccessKind kind) const override {
    (void)offset;
    (void)width;
    (void)kind;
    return wait_states_;
  }

  bool IsMemory() const override { return true; }

  const uint8_t* HostSpan(uint32_t offset, uint32_t len) const override {
    return uint64_t{offset} + len <= size() ? bytes_ + offset : nullptr;
  }

  // Marks every page of the span: its holder may store anywhere in it.
  uint8_t* HostMutableSpan(uint32_t offset, uint32_t len) override;

  // Host-side (non-guest) raw store for loaders and tests. A range that
  // does not fit inside the memory fails, writing neither bytes nor marks.
  Status LoadBytes(uint32_t offset, std::span<const uint8_t> bytes);

  // Fill(0) zeroes the marked pages and keeps their marks, so a mutable
  // span taken before the fill stays covered.
  void Fill(uint8_t value);

  std::span<const uint8_t> data() const { return {bytes_, size()}; }

  // One entry per kRamPageSize page (the last may be short): non-zero when
  // the page may hold a non-zero byte.
  std::span<const uint8_t> write_map() const { return marks_; }

 private:
  void Mark(uint32_t offset, size_t len);

  uint32_t wait_states_;
  std::vector<uint8_t> marks_;
  size_t mapped_;
  uint8_t* bytes_;
};

// Programmable ROM: readable and executable by guest code, but guest writes
// are bus errors. Programmed from the host (models factory/field flashing).
class Prom : public Ram {
 public:
  Prom(std::string name, uint32_t base, uint32_t size)
      : Ram(std::move(name), base, size) {}

  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;

  // Guest stores are rejected above, so no store fast path may exist either.
  uint8_t* HostMutableSpan(uint32_t offset, uint32_t len) override {
    (void)offset;
    (void)len;
    return nullptr;
  }
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_MEM_MEMORY_H_
