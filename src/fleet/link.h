// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet link layer (DESIGN.md §13): a deterministic, cycle-stamped message
// fabric between simulated TrustLite nodes and the host-side remote
// verifier. Models the network of the paper's deployment story (Secs.
// 1/2.3: a remote party attesting populations of devices) at the transport
// level: each directed link carries byte-chunk messages with configurable
// latency, loss and reordering.
//
// Determinism model. The fleet advances in fixed run-quanta of Q cycles.
// Messages are stamped with the global cycle of their last payload byte;
// link impairments are drawn from a per-link xoshiro stream seeded from
// (fleet_seed, src, dst) in Send() order, which the executor keeps
// deterministic (sends in node-id order at every quantum barrier). A
// message becomes *visible* to its destination at the first quantum
// boundary >= send_cycle + latency — the conservative-lookahead rule of
// classic parallel discrete-event simulation, which makes delivery (and
// hence every node's input stream) independent of host thread scheduling.
//
// Due-queues (the 1k–10k-node hot path). In-flight messages live in one
// min-heap *per destination*, keyed by (deliver_cycle, seq). Delivery pops
// incrementally from the front until the head is not yet due, so a quantum
// costs O(due · log in-flight) per destination instead of rescanning (and
// re-sorting) everything still in transit — the difference between O(due)
// and O(total) matters on ring fleets, where hop-scaled verifier latency
// keeps frames in flight for hundreds of quanta. Distinct destinations own
// disjoint heaps, so the executor delivers to all nodes in parallel.
//
// Equal-cycle ordering contract. Frames due at the same cycle for the same
// destination (warm-boot clones emit at identical cycles; replay/reflect
// inject extra frames at the send cycle) are ordered by `seq`, a monotonic
// global send counter — per-link monotonic by construction, assigned in
// the executor's deterministic node-id send order, and unique, so heap pops
// are a total order and no run can depend on container or sort stability.
//
// Reordering is modelled as an extra-latency penalty: a "reordered" message
// is delayed past messages sent after it on the same link, which at the
// byte-stream level is exactly an out-of-order arrival. Loss drops the
// whole message (one UART burst ~ one network frame).
//
// Hostile modes. Beyond passive line impairments, a link can model an
// *active* adversary on the wire (paper Secs. 1/2.3 assume one):
// corruption (seeded bit-flips in the delivered bytes), stale-frame replay
// (a previously transmitted frame on the same link is re-delivered) and
// reflection (the frame is echoed back toward its sender, so e.g. a
// verifier's challenge shows up in its own RX stream attributed to the
// node). Hostile rolls draw from a *separate* per-link stream from the
// loss/reorder rolls, so enabling an attack never perturbs the passive
// impairment pattern of an existing seed — and like everything else in the
// fabric they are cycle-stamped and consumed in deterministic Send() order,
// keeping transcripts bit-identical across host thread counts.

#ifndef TRUSTLITE_SRC_FLEET_LINK_H_
#define TRUSTLITE_SRC_FLEET_LINK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace trustlite {

// Port id of the host-side remote verifier in the fabric.
inline constexpr int kVerifierPort = -1;

// Largest usable port id: port+1 must fit the 16-bit lane LinkId folds it
// into when deriving per-link RNG streams (kVerifierPort maps to lane 0).
inline constexpr int kMaxFleetPort = 0xFFFE - 1;

enum class Topology {
  kStar,  // Every node has a direct up/down link to the verifier.
  kRing,  // Nodes form a ring; verifier traffic pays per-hop latency from
          // its attachment point at node 0, and neighbours are linked for
          // node-to-node traffic (UART bursts + GPIO bridging).
};

struct LinkParams {
  uint32_t latency_cycles = 1000;  // Per-hop transit time.
  uint32_t loss_ppm = 0;           // Per-message drop rate, parts/million.
  uint32_t reorder_ppm = 0;        // Per-message reorder rate, parts/million.
  // Active adversary (per-message rates, parts/million; see header note).
  uint32_t corrupt_ppm = 0;  // Bit-flips in the delivered payload.
  uint32_t replay_ppm = 0;   // Re-deliver a previously transmitted frame.
  uint32_t reflect_ppm = 0;  // Echo the frame back toward its sender.
};

struct FleetMessage {
  int src = 0;
  int dst = 0;
  uint64_t seq = 0;            // Global send order (delivery tiebreak).
  uint64_t send_cycle = 0;     // Cycle of the last payload byte.
  uint64_t deliver_cycle = 0;  // Earliest visibility (before quantization).
  std::string payload;
};

class LinkFabric {
 public:
  explicit LinkFabric(uint64_t fleet_seed) : fleet_seed_(fleet_seed) {}

  // Declares a directed link. Duplicate Connect overwrites the parameters
  // but keeps the link's RNG stream. Ports must be in
  // [kVerifierPort, kMaxFleetPort].
  void Connect(int src, int dst, const LinkParams& params);
  bool connected(int src, int dst) const;

  // Destinations of every out-link of `src`, in ascending port order. The
  // reference flavour serves from a cached adjacency table (rebuilt lazily
  // after Connect), so the executor's harvest loop costs O(out-degree) per
  // node instead of scanning the whole link map.
  const std::vector<int>& OutLinksOf(int src) const;
  std::vector<int> OutLinks(int src) const { return OutLinksOf(src); }

  // Stamps and enqueues one message; applies loss/latency/reordering from
  // the link's deterministic stream. No-op (drop) when the link does not
  // exist. Returns false iff the message was lost or unroutable. Send is
  // serial-only (it advances per-link RNG streams); the executor calls it
  // in node-id order at the quantum barrier.
  bool Send(int src, int dst, uint64_t send_cycle, std::string payload);

  // Pops every message for `dst` visible at global cycle `now` into *out
  // (cleared first; its capacity is reused — the executor passes per-node
  // scratch so the steady state allocates nothing), ordered by
  // (deliver_cycle, seq). Returns the number of messages popped. Safe to
  // call concurrently for DISTINCT destinations; the executor calls it
  // exactly once per destination per quantum with the quantum's start
  // cycle.
  size_t DeliverInto(int dst, uint64_t now, std::vector<FleetMessage>* out);

  // Allocating convenience wrapper around DeliverInto (tests, one-shot
  // drivers).
  std::vector<FleetMessage> Deliver(int dst, uint64_t now);

  // Messages still in flight (all destinations). O(1): maintained
  // incrementally by Send/DeliverInto — the controller's drain and
  // `tlfleetd workload` poll this every quantum.
  size_t in_flight() const {
    return in_flight_count_.load(std::memory_order_relaxed);
  }

  // Ground truth for the incremental counter: walks every due-queue.
  // O(destinations); debug builds assert it against in_flight() at each
  // quantum barrier (hostile replay/reflect frames must be neither double-
  // nor under-counted).
  size_t RecountInFlight() const;

  struct Stats {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t reordered = 0;
    uint64_t payload_bytes = 0;  // Offered (non-lost) sender payload only.
    // Hostile-mode events actually applied (a replay roll with an empty
    // link history, for example, does not count).
    uint64_t corrupted = 0;
    uint64_t replayed = 0;
    uint64_t reflected = 0;
  };
  // By value: `delivered` is folded in from an atomic that parallel
  // DeliverInto calls update; everything else advances only under Send.
  Stats stats() const;

  // Per-link counters in ascending (src, dst) order, for `tlfleetd --stats`.
  struct LinkStatsRow {
    int src = 0;
    int dst = 0;
    uint64_t sent = 0;
    uint64_t corrupted = 0;
    uint64_t replayed = 0;
    uint64_t reflected = 0;
  };
  std::vector<LinkStatsRow> PerLinkStats() const;

 private:
  struct Link {
    LinkParams params;
    Xoshiro256 rng{0};          // Passive impairments (loss/reorder).
    Xoshiro256 hostile_rng{0};  // Adversary rolls (corrupt/replay/reflect).
    // Recently transmitted frames, oldest first (the adversary's capture
    // buffer for replay; bounded at kReplayHistoryFrames).
    std::vector<std::string> history;
    uint64_t sent = 0;
    uint64_t corrupted = 0;
    uint64_t replayed = 0;
    uint64_t reflected = 0;
  };

  // One min-heap of in-flight messages per destination, keyed by
  // (deliver_cycle, seq); index = dst + 1 (kVerifierPort lives at 0).
  struct DueQueue {
    std::vector<FleetMessage> heap;
  };

  void Enqueue(FleetMessage message);

  std::map<std::pair<int, int>, Link> links_;
  std::vector<DueQueue> due_;  // Indexed by dst + 1; resized under Send.
  uint64_t fleet_seed_ = 0;
  uint64_t next_seq_ = 1;
  Stats stats_;  // Send-side fields only; `delivered` lives below.
  // Updated by parallel DeliverInto calls (relaxed: counters only).
  std::atomic<uint64_t> delivered_{0};
  std::atomic<size_t> in_flight_count_{0};
  // Cached adjacency (index src + 1), rebuilt lazily after Connect.
  mutable std::vector<std::vector<int>> out_links_;
  mutable bool adjacency_stale_ = true;
};

// Wires `fabric` for `nodes` devices in the given topology. Verifier links
// are always created (both directions); `link` supplies the per-hop
// parameters. Ring verifier links scale latency by (1 + hop distance from
// node 0, the attachment point).
void BuildTopologyLinks(LinkFabric* fabric, Topology topology, int nodes,
                        const LinkParams& link);

const char* TopologyName(Topology topology);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_LINK_H_
