// Copyright 2026 The TrustLite Reproduction Authors.
//
// FleetNode: one simulated TrustLite device inside a fleet — a Platform
// plus the glue that bridges its UART into the link fabric. TX bytes are
// captured with their emission cycle through the observability layer
// (UartTxEvent), so fabric messages are stamped with the exact simulated
// cycle the guest stored to TXDATA; RX bytes delivered by the fabric are
// pushed into the UART input queue at quantum boundaries.
//
// TX burst batching. Bytes captured within one quantum always coalesce
// into a single multi-byte burst stamped with the last byte's cycle. A
// batching horizon > 1 additionally holds a *growing* burst across up to
// that many quanta before handing it to the fabric, so a guest that trickles
// out one byte per quantum (a timer-paced echo, a slow attestation report)
// produces one multi-byte frame instead of a train of 1-byte frames
// inflating the fabric's in-flight counts. The flush rule is a pure
// function of simulated state (horizon reached, burst went idle for a
// quantum, or the CPU halted), so batching never perturbs cross-thread
// determinism — it only trades up to horizon-1 quanta of delivery latency
// for fewer, larger frames.
//
// Per-device determinism: the node derives its TRNG seed from
// (fleet_seed, id) via DeriveDeviceSeed, so devices are decorrelated but
// the whole fleet replays bit-identically from one seed.

#ifndef TRUSTLITE_SRC_FLEET_NODE_H_
#define TRUSTLITE_SRC_FLEET_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/platform/platform.h"

namespace trustlite {

class FleetNode {
 public:
  // `config` is the fleet-wide platform template; the node overrides
  // trng_seed with its derived per-device seed.
  FleetNode(int id, uint64_t fleet_seed, const PlatformConfig& config);

  int id() const { return id_; }
  uint64_t device_seed() const { return device_seed_; }
  Platform& platform() { return platform_; }
  const Platform& platform() const { return platform_; }

  // Advances the node to the global cycle `target` (no-op when halted).
  // Called from pool worker threads; the platform's thread-affinity latch
  // is released before returning so the next quantum may run elsewhere.
  void RunQuantum(uint64_t target_cycle);

  // UART TX bytes ready for the fabric, as one contiguous burst.
  // `last_cycle` is the emission cycle of the final byte (the fabric's
  // send stamp). Empty payload = nothing to send this quantum.
  struct TxBurst {
    uint64_t last_cycle = 0;
    std::string payload;
  };
  // Harvests the bytes captured since the last call, batched across quanta
  // up to `batch_quanta` (1 = flush every quantum, the pre-batching
  // behaviour; see header note for the flush rule). Call exactly once per
  // quantum. Touches only this node's state — the executor harvests all
  // nodes in parallel and serializes only the fabric sends.
  TxBurst HarvestTx(uint32_t batch_quanta = 1);

  // Bytes captured but still held back by the batching horizon.
  size_t pending_tx_bytes() const { return pending_.payload.size(); }

  // Queues fabric-delivered bytes into the UART receiver.
  void PushRx(const std::string& payload);

  uint64_t tx_bytes() const { return tx_bytes_; }
  uint64_t rx_bytes() const { return rx_bytes_; }

  // Digest of the node's architectural state: registers, IP/FLAGS, halt
  // latch, cycle counter, SRAM, DRAM, GPIO output and captured UART output.
  // Bit-identical across reruns iff execution was deterministic — the
  // fleet determinism tests compare these across thread counts.
  Sha256Digest StateDigest() const;

 private:
  // Captures UartTxEvents (cycle-stamped by the platform hub). Consumes no
  // IrqRaiseEvents, so it leaves the node's device ticks lazy.
  class TxCapture : public EventSink {
   public:
    bool WantsIrqRaiseEvents() const override { return false; }
    void OnUartTx(const UartTxEvent& event) override {
      last_cycle_ = event.cycle;
      payload_.push_back(static_cast<char>(event.byte));
    }
    uint64_t last_cycle_ = 0;
    std::string payload_;
  };

  int id_;
  uint64_t device_seed_;
  Platform platform_;
  TxCapture tx_capture_;
  TxBurst pending_;              // Burst held back by the batching horizon.
  uint32_t pending_quanta_ = 0;  // Harvests since the burst started.
  uint64_t tx_bytes_ = 0;
  uint64_t rx_bytes_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_NODE_H_
