// Copyright 2026 The TrustLite Reproduction Authors.
//
// UART console. Output bytes accumulate in a host-visible buffer; input is
// injected from the host. The prototype core in the paper includes a 16550
// UART (Sec. 5.2); ours is simplified but exercises the same secure-
// peripheral pattern: grant a trustlet exclusive MMIO access and it owns
// the console (trusted path / secure user I/O, Sec. 2.3).
//
// Register map:
//   0x00 TXDATA   write low byte -> output
//   0x04 STATUS   [0] tx ready (always), [1] rx available
//   0x08 RXDATA   read next input byte (0 when empty)
//   0x0C RXCOUNT  pending input bytes (RO)

#ifndef TRUSTLITE_SRC_DEV_UART_H_
#define TRUSTLITE_SRC_DEV_UART_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/mem/device.h"
#include "src/platform/observe/events.h"

namespace trustlite {

inline constexpr uint32_t kUartRegTxData = 0x00;
inline constexpr uint32_t kUartRegStatus = 0x04;
inline constexpr uint32_t kUartRegRxData = 0x08;
inline constexpr uint32_t kUartRegRxCount = 0x0C;

class Uart : public Device {
 public:
  explicit Uart(uint32_t mmio_base);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Reset() override;

  // Host side.
  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }
  void PushInput(const std::string& data);

  // Observability: one UartTxEvent per byte hitting TXDATA, raised at the
  // store itself (so the hub stamps the emitting instruction, not whoever
  // later drains the buffer). Null = off.
  void SetEventSink(EventSink* sink) { sink_ = sink; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  std::string output_;
  std::deque<uint8_t> input_;
  EventSink* sink_ = nullptr;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_UART_H_
