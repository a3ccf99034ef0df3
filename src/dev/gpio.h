// Copyright 2026 The TrustLite Reproduction Authors.
// GPIO / LED block: a minimal user-visible output device. Used by the
// secure-peripheral example: a trustlet with exclusive GPIO access gives a
// trusted display path that the OS cannot spoof (Sec. 2.3 "Secure
// Peripherals", citing trusted-path work [53]).
//
// Register map:  0x00 OUT (r/w)   0x04 IN (RO, host-settable)

#ifndef TRUSTLITE_SRC_DEV_GPIO_H_
#define TRUSTLITE_SRC_DEV_GPIO_H_

#include <cstdint>
#include <vector>

#include "src/mem/device.h"

namespace trustlite {

inline constexpr uint32_t kGpioRegOut = 0x00;
inline constexpr uint32_t kGpioRegIn = 0x04;

class Gpio : public Device {
 public:
  explicit Gpio(uint32_t mmio_base);

  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Reset() override;

  // Host side: observe outputs (with full history) and drive inputs.
  uint32_t out() const { return out_; }
  const std::vector<uint32_t>& out_history() const { return out_history_; }
  void SetIn(uint32_t value) { in_ = value; }

 protected:
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  uint32_t out_ = 0;
  uint32_t in_ = 0;
  std::vector<uint32_t> out_history_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_DEV_GPIO_H_
