// Copyright 2026 The TrustLite Reproduction Authors.
//
// DMA engine — an implementation of the paper's *future work* (Sec. 6):
// "we want to extend this secure interaction to (possibly untrusted)
// devices with Direct Memory Access (DMA) capability, which were shown to
// be problematic for certain security architectures [41]."
//
// Two hardware modes:
//  * kUnchecked — transactions bypass the protection unit, as in classic
//    DMA controllers. This reproduces the attack of [41]: any software
//    that can program the engine exfiltrates or corrupts trustlet memory.
//  * kExecutionAware — the natural TrustLite extension: the engine carries
//    an OWNER identity (an instruction address inside the owning subject's
//    code region, programmed by the Secure Loader and lockable), and every
//    DMA transaction is checked by the EA-MPU *as if issued by that
//    subject*. A trustlet-owned engine can only touch what its trustlet
//    could; a faulting transfer aborts before any protected byte moves.
//
// Register map:
//   0x00 CTRL    write 1 = start transfer; write 2 = lock OWNER
//   0x04 SRC     source address
//   0x08 DST     destination address
//   0x0C LEN     bytes (word-aligned transfers; LEN rounded down)
//   0x10 STATUS  0 = idle, 1 = done, 2 = aborted by protection fault
//   0x14 OWNER   subject identity for execution-aware mode (RO when locked)

#ifndef TRUSTLITE_SRC_DEV_DMA_H_
#define TRUSTLITE_SRC_DEV_DMA_H_

#include <cstdint>

#include "src/mem/bus.h"
#include "src/mem/device.h"
#include "src/platform/observe/events.h"

namespace trustlite {

inline constexpr uint32_t kDmaRegCtrl = 0x00;
inline constexpr uint32_t kDmaRegSrc = 0x04;
inline constexpr uint32_t kDmaRegDst = 0x08;
inline constexpr uint32_t kDmaRegLen = 0x0C;
inline constexpr uint32_t kDmaRegStatus = 0x10;
inline constexpr uint32_t kDmaRegOwner = 0x14;

inline constexpr uint32_t kDmaCtrlStart = 1;
inline constexpr uint32_t kDmaCtrlLockOwner = 2;

inline constexpr uint32_t kDmaStatusIdle = 0;
inline constexpr uint32_t kDmaStatusDone = 1;
inline constexpr uint32_t kDmaStatusFault = 2;

class DmaEngine : public Device {
 public:
  enum class Mode {
    kUnchecked,       // Classic DMA: bypasses the protection unit.
    kExecutionAware,  // Transactions carry the OWNER subject identity.
  };

  DmaEngine(uint32_t mmio_base, Bus* bus, Mode mode);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Reset() override;

  Mode mode() const { return mode_; }
  bool owner_locked() const { return owner_locked_; }
  uint64_t words_transferred() const { return words_transferred_; }

  // Observability: one DmaTransferEvent per started transfer, after it
  // completes or aborts. Null = off.
  void SetEventSink(EventSink* sink) { sink_ = sink; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  void RunTransfer();
  void NotifyTransfer();

  Bus* bus_;
  Mode mode_;
  EventSink* sink_ = nullptr;
  uint32_t src_ = 0;
  uint32_t dst_ = 0;
  uint32_t len_ = 0;
  uint32_t status_ = kDmaStatusIdle;
  uint32_t owner_ = 0;
  bool owner_locked_ = false;
  uint64_t words_transferred_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_DMA_H_
