// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/dev/dma.h"

#include "src/common/bytes.h"

#include "src/mem/layout.h"

namespace trustlite {

DmaEngine::DmaEngine(uint32_t mmio_base, Bus* bus, Mode mode)
    : Device("dma", mmio_base, kMmioBlockSize), bus_(bus), mode_(mode) {}

void DmaEngine::Reset() {
  src_ = 0;
  dst_ = 0;
  len_ = 0;
  status_ = kDmaStatusIdle;
  owner_ = 0;
  owner_locked_ = false;
}

void DmaEngine::NotifyTransfer() {
  if (sink_ == nullptr) {
    return;
  }
  DmaTransferEvent event;  // Cycle/IP stamped by the hub.
  event.src = src_;
  event.dst = dst_;
  event.len = len_;
  event.faulted = status_ == kDmaStatusFault;
  sink_->OnDmaTransfer(event);
}

void DmaEngine::RunTransfer() {
  AccessContext ctx;
  if (mode_ == Mode::kUnchecked) {
    // Classic DMA: master-port access with no protection check.
    ctx.engine = true;
  } else {
    // Execution-aware DMA: the EA-MPU sees the transaction as if issued by
    // the owning subject's code.
    ctx.curr_ip = owner_;
  }
  // Pre-flight both directions word by word; abort before moving anything
  // if any access would fault (no partial leaks).
  const uint32_t words = len_ / 4;
  for (uint32_t i = 0; i < words; ++i) {
    uint32_t probe = 0;
    ctx.kind = AccessKind::kRead;
    if (bus_->Read(ctx, src_ + i * 4, 4, &probe) != AccessResult::kOk) {
      status_ = kDmaStatusFault;
      return;
    }
  }
  for (uint32_t i = 0; i < words; ++i) {
    uint32_t existing = 0;
    ctx.kind = AccessKind::kRead;
    // Destination write permission is what matters; probing with a read is
    // insufficient, so verify writes by attempting the real store below —
    // but first read the destination so a mid-transfer fault could be
    // rolled back. Simpler and stronger: dry-run the protection check via a
    // write of the existing value.
    if (bus_->Read(ctx, dst_ + i * 4, 4, &existing) == AccessResult::kOk) {
      ctx.kind = AccessKind::kWrite;
      if (bus_->Write(ctx, dst_ + i * 4, 4, existing) != AccessResult::kOk) {
        status_ = kDmaStatusFault;
        return;
      }
    } else {
      // Unreadable destination: test writability directly with zero —
      // failing either way aborts before the payload moves.
      ctx.kind = AccessKind::kWrite;
      if (bus_->Write(ctx, dst_ + i * 4, 4, 0) != AccessResult::kOk) {
        status_ = kDmaStatusFault;
        return;
      }
    }
  }
  // Committed: perform the copy.
  for (uint32_t i = 0; i < words; ++i) {
    uint32_t value = 0;
    ctx.kind = AccessKind::kRead;
    if (bus_->Read(ctx, src_ + i * 4, 4, &value) != AccessResult::kOk) {
      status_ = kDmaStatusFault;
      return;
    }
    ctx.kind = AccessKind::kWrite;
    if (bus_->Write(ctx, dst_ + i * 4, 4, value) != AccessResult::kOk) {
      status_ = kDmaStatusFault;
      return;
    }
    ++words_transferred_;
  }
  status_ = kDmaStatusDone;
}

AccessResult DmaEngine::Read(uint32_t offset, uint32_t width, uint32_t* value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kDmaRegCtrl:
      *value = owner_locked_ ? kDmaCtrlLockOwner : 0;
      return AccessResult::kOk;
    case kDmaRegSrc:
      *value = src_;
      return AccessResult::kOk;
    case kDmaRegDst:
      *value = dst_;
      return AccessResult::kOk;
    case kDmaRegLen:
      *value = len_;
      return AccessResult::kOk;
    case kDmaRegStatus:
      *value = status_;
      return AccessResult::kOk;
    case kDmaRegOwner:
      *value = owner_;
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

AccessResult DmaEngine::Write(uint32_t offset, uint32_t width, uint32_t value) {
  if (width != 4) {
    return AccessResult::kBusError;
  }
  switch (offset) {
    case kDmaRegCtrl:
      if ((value & kDmaCtrlLockOwner) != 0) {
        owner_locked_ = true;
      }
      if ((value & kDmaCtrlStart) != 0) {
        RunTransfer();
        NotifyTransfer();
      }
      return AccessResult::kOk;
    case kDmaRegSrc:
      src_ = value;
      return AccessResult::kOk;
    case kDmaRegDst:
      dst_ = value;
      return AccessResult::kOk;
    case kDmaRegLen:
      len_ = value;
      return AccessResult::kOk;
    case kDmaRegStatus:
      status_ = kDmaStatusIdle;
      return AccessResult::kOk;
    case kDmaRegOwner:
      if (!owner_locked_) {
        owner_ = value;
      }
      return AccessResult::kOk;
    default:
      return AccessResult::kBusError;
  }
}

void DmaEngine::SerializeState(std::vector<uint8_t>* out) const {
  AppendLe32(*out, src_);
  AppendLe32(*out, dst_);
  AppendLe32(*out, len_);
  AppendLe32(*out, status_);
  AppendLe32(*out, owner_);
  out->push_back(owner_locked_ ? 1 : 0);
  AppendLe64(*out, words_transferred_);
}

Status DmaEngine::RestoreState(const uint8_t* data, size_t size, bool commit) {
  ByteReader reader(data, size);
  uint32_t src = 0;
  uint32_t dst = 0;
  uint32_t len = 0;
  uint32_t status = 0;
  uint32_t owner = 0;
  uint8_t owner_locked = 0;
  uint64_t words_transferred = 0;
  reader.ReadU32(&src);
  reader.ReadU32(&dst);
  reader.ReadU32(&len);
  reader.ReadU32(&status);
  reader.ReadU32(&owner);
  reader.ReadU8(&owner_locked);
  reader.ReadU64(&words_transferred);
  if (!reader.Done()) {
    return InvalidArgument("dma snapshot payload malformed");
  }
  if (!commit) {
    return OkStatus();
  }
  src_ = src;
  dst_ = dst;
  len_ = len;
  status_ = status;
  owner_ = owner;
  owner_locked_ = owner_locked != 0;
  words_transferred_ = words_transferred;
  return OkStatus();
}

}  // namespace trustlite
