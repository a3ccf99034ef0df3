// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet executor (DESIGN.md §13): shards N independent Platform instances
// across a host thread pool while keeping results bit-identical to the
// single-threaded schedule for a fixed fleet seed.
//
// Execution model — synchronized run-quanta, fused per node:
//   1. Verifier drain (serial): fabric messages due at the verifier port
//     are appended to the per-source channel streams (Rx) in
//     (deliver_cycle, seq) order — the fabric's due-queues pop a total
//     order, so the transcript is thread-independent by construction.
//   2. Sharded deliver + execute + harvest-collect: ONE ParallelFor round
//     per quantum. Shard i pops node i's due frames from its private
//     due-queue into node i's UART or staging channels, runs the node to
//     the quantum end, and collects its TX burst into a per-node scratch
//     slot. Every step touches only node i's state (per-dst due-queue,
//     Platform, channel streams, scratch slot), so host scheduling cannot
//     leak into results.
//   3. Serial sends: collected bursts enter the fabric in node-id order,
//     consuming the per-link impairment/hostile RNG streams in a
//     thread-independent order — this is the determinism anchor and the
//     only reason the send phase stays serial. Ring fleets also bridge
//     GPIO here (node i's OUT latched into node i+1's IN).
//
// Both drains route a delivered payload by its first byte (RouteFrame,
// src/fleet/frame.h) into one of four per-node channels: kAttest and
// kControl at the verifier, kUpdate and kConfig at the node.
//
// The verifier (FleetAttestor, or any host driver) interacts strictly at
// quantum boundaries through SendToNode / Rx, which keeps the attestation
// transcripts deterministic as well.

#ifndef TRUSTLITE_SRC_FLEET_FLEET_H_
#define TRUSTLITE_SRC_FLEET_FLEET_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/frame.h"
#include "src/fleet/link.h"
#include "src/fleet/node.h"
#include "src/fleet/pool.h"
#include "src/platform/observe/fleet_trace.h"

namespace trustlite {

// Appends one "@cycle who event" line to a verifier-side transcript; the
// attestor, the update campaign and the controller log in this shape.
inline void AppendTranscriptLine(std::string* transcript, uint64_t cycle,
                                 const std::string& who,
                                 const std::string& event) {
  *transcript += "@" + std::to_string(cycle) + " " + who + " " + event + "\n";
}

// Ring topologies latch each node's GPIO OUT into its neighbour's IN.
inline constexpr bool kRingBridgesGpio = true;

// Largest fleet: node ids are fabric ports in [0, kMaxFleetPort].
inline constexpr int kMaxFleetNodes = kMaxFleetPort + 1;

struct FleetConfig {
  int nodes = 4;
  Topology topology = Topology::kStar;
  uint64_t seed = 1;
  int threads = 1;            // Host threads (0 = hardware concurrency).
  uint64_t quantum = 20'000;  // Cycles per synchronized run-quantum.
  LinkParams link;            // Per-hop link parameters.
  // TX batching horizon in quanta (FleetNode::HarvestTx). 1 = flush every
  // quantum (bit-identical to pre-batching fleets); K > 1 lets a growing
  // burst accumulate across up to K quanta before it enters the fabric.
  uint32_t harvest_batch_quanta = 1;
  PlatformConfig platform;    // Per-node template (trng_seed is derived).
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);

  const FleetConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  FleetNode& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  LinkFabric& fabric() { return fabric_; }

  // Global quantum-aligned cycle floor: every node has executed to at least
  // this cycle, and no delivered message postdates it.
  uint64_t now() const { return now_; }
  uint64_t quanta_run() const { return quanta_run_; }

  // One synchronized round (deliver -> parallel execute -> harvest).
  void RunQuantum();
  void RunQuanta(uint64_t count);

  bool AllHalted() const;

  // Live elasticity (DESIGN.md §17): appends a fresh node with the next id
  // and wires its verifier links. Star topologies only — splicing a node
  // into a ring would re-route frames already in flight; the controller
  // fails scale-up closed on rings instead. Call only at a quantum
  // boundary; the new node first executes in the following quantum. The
  // caller copies a node's state into it (CloneNode, provision.h) before
  // that. Returns the new node id, or -1 when the topology does not
  // support growth or the port space is exhausted.
  int AddNode();

  // --- Verifier-side transport (host remote party) ---
  // Sends `payload` from the verifier port toward `node` at the current
  // global cycle. Returns false when the link lost the message.
  bool SendToNode(int node, std::string payload);
  // Node-originated control traffic (config acks, health beacons): sends
  // `payload` from `node` toward the verifier port at the current global
  // cycle. Serial-only, like SendToNode — the controller's node agents call
  // it in node-id order at quantum boundaries, which keeps the per-link RNG
  // consumption order thread-independent.
  bool SendToVerifier(int node, std::string payload);
  // The channel table: one byte stream per (node, channel), appended as
  // frames are delivered. Each channel has a single consumer, which tracks
  // its own scan offset and hands consumed bytes back via ConsumeRx.
  const std::string& Rx(int node, Channel channel) const {
    return rx_[static_cast<size_t>(node)][static_cast<size_t>(channel)];
  }
  // Reclaims the first `upto` bytes of Rx(node, channel) — everything the
  // consumer has scanned past. Returns the bytes actually trimmed (the
  // consumer rebases its offsets by that amount). This bounds memory even
  // when a hostile link floods a stream with garbage.
  size_t ConsumeRx(int node, Channel channel, size_t upto);

  // The scan cursor every channel consumer shares. Scans Rx(node, channel)
  // from *cursor with `scan` (ScanFrame-shaped: rx, offset, &frame_start,
  // &next_offset -> FrameScan) and hands each frame to `on_frame` until it
  // returns false; bytes after an early stop stay for the next call.
  // Skipped bytes are added to *noise_bytes (when non-null) before the
  // frame that follows them is handed over. Everything scanned past is
  // reclaimed with ConsumeRx and *cursor rebased.
  template <typename Scan, typename OnFrame>
  void DrainRx(int node, Channel channel, size_t* cursor,
               uint64_t* noise_bytes, Scan scan, OnFrame on_frame) {
    const std::string& rx = Rx(node, channel);
    while (true) {
      size_t start = 0;
      size_t end = 0;
      const FrameScan result = scan(rx, *cursor, &start, &end);
      if (result == FrameScan::kNoFrame) {
        start = rx.size();
      }
      if (noise_bytes != nullptr) {
        *noise_bytes += start - *cursor;
      }
      *cursor = result == FrameScan::kFrame ? end : start;
      if (result != FrameScan::kFrame ||
          !on_frame(std::string_view(rx).substr(start, end - start))) {
        break;
      }
    }
    *cursor -= ConsumeRx(node, channel, *cursor);
  }
  // DrainRx over a CRC channel with the frame codec's scanner.
  template <typename OnFrame>
  void DrainFrames(int node, Channel channel, size_t* cursor,
                   OnFrame on_frame) {
    DrainRx(node, channel, cursor, nullptr,
            [channel](const std::string& rx, size_t offset, size_t* start,
                      size_t* end) {
              return ScanFrame(rx, offset, channel, start, end);
            },
            on_frame);
  }

  // Digest over every node's StateDigest, in node order — one hash pinning
  // the architectural state of the whole fleet.
  Sha256Digest FleetDigest() const;

  // Per-node summary rows (state column left empty; attestation drivers
  // fill it in before formatting).
  std::vector<FleetNodeStatsRow> SummaryRows() const;

  uint64_t TotalInstructions() const;

 private:
  FleetConfig config_;
  LinkFabric fabric_;
  std::vector<std::unique_ptr<FleetNode>> nodes_;
  QuantumPool pool_;
  // rx_[i][kUpdate] / rx_[i][kConfig] are appended only by the phase-2
  // shard running node i; rx_[i][kAttest] / rx_[i][kControl] only by the
  // serial phase-1 drain.
  std::vector<std::array<std::string, kNumChannels>> rx_;
  // Per-quantum scratch, sized once in the constructor and reused every
  // round so a 10k-node fleet does not churn thousands of vector
  // allocations per quantum. deliver_scratch_[i] and burst_scratch_[i] are
  // written only by the shard running node i.
  std::vector<std::vector<FleetMessage>> deliver_scratch_;
  std::vector<FleetNode::TxBurst> burst_scratch_;
  std::vector<FleetMessage> verifier_scratch_;
  std::vector<uint32_t> gpio_out_scratch_;
  uint64_t now_ = 0;
  uint64_t quanta_run_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_FLEET_H_
