// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/mem/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "src/common/bytes.h"

namespace trustlite {

namespace {

// Anonymous private pages read as zero until first written, and only
// touched pages take host memory.
uint8_t* MapZeroPages(size_t len) {
  void* pages = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return static_cast<uint8_t*>(pages);
}

}  // namespace

Ram::Ram(std::string name, uint32_t base, uint32_t size, uint32_t wait_states)
    : Device(std::move(name), base, size),
      wait_states_(wait_states),
      marks_((uint64_t{size} + kRamPageSize - 1) / kRamPageSize, 0),
      // mmap rejects a zero length, so an empty memory still maps a page.
      mapped_(std::max<size_t>(marks_.size(), 1) * kRamPageSize),
      bytes_(MapZeroPages(mapped_)) {}

Ram::~Ram() { munmap(bytes_, mapped_); }

AccessResult Ram::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (offset + width > size()) {
    return AccessResult::kBusError;
  }
  if (width == 4) {
    *value = LoadLe32(bytes_ + offset);
  } else {
    *value = bytes_[offset];
  }
  return AccessResult::kOk;
}

AccessResult Ram::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (offset + width > size()) {
    return AccessResult::kBusError;
  }
  // Words are aligned (Device::Write), so an access never spans two pages.
  marks_[offset / kRamPageSize] = 1;
  if (width == 4) {
    StoreLe32(bytes_ + offset, value);
  } else {
    bytes_[offset] = static_cast<uint8_t>(value);
  }
  return AccessResult::kOk;
}

uint8_t* Ram::HostMutableSpan(uint32_t offset, uint32_t len) {
  if (uint64_t{offset} + len > size()) {
    return nullptr;
  }
  Mark(offset, len);
  return bytes_ + offset;
}

Status Ram::LoadBytes(uint32_t offset, std::span<const uint8_t> bytes) {
  if (uint64_t{offset} + bytes.size() > size()) {
    return OutOfRange("load of " + std::to_string(bytes.size()) +
                      " bytes at offset " + std::to_string(offset) +
                      " overruns memory '" + name() + "' of " +
                      std::to_string(size()) + " bytes");
  }
  if (!bytes.empty()) {
    std::memcpy(bytes_ + offset, bytes.data(), bytes.size());
    Mark(offset, bytes.size());
  }
  return OkStatus();
}

void Ram::Fill(uint8_t value) {
  if (value != 0) {
    std::memset(bytes_, value, size());
    std::fill(marks_.begin(), marks_.end(), 1);
    return;
  }
  for (size_t page = 0; page < marks_.size(); ++page) {
    if (marks_[page] != 0) {
      const size_t offset = page * kRamPageSize;
      std::memset(bytes_ + offset, 0,
                  std::min<size_t>(kRamPageSize, size() - offset));
    }
  }
}

void Ram::Mark(uint32_t offset, size_t len) {
  if (len == 0) {
    return;
  }
  std::fill(marks_.begin() + offset / kRamPageSize,
            marks_.begin() + (offset + len - 1) / kRamPageSize + 1, 1);
}

AccessResult Prom::Write(uint32_t offset, uint32_t width, uint32_t value) {
  (void)offset;
  (void)width;
  (void)value;
  return AccessResult::kBusError;
}

}  // namespace trustlite
