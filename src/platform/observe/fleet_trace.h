// Copyright 2026 The TrustLite Reproduction Authors.
//
// Fleet-level observability aggregation (DESIGN.md §13):
//
//  * FleetTraceAggregator merges the per-node ChromeTraceWriter streams of a
//    multi-device simulation into ONE Chrome trace-event document. Every
//    node becomes its own trace process (pid = node id, process name
//    "node-<id>"), keeping the per-node lane structure (OS / trustlet /
//    untrusted threads) intact, so Perfetto shows the whole fleet on a
//    shared simulated-cycle timebase — attestation round trips are visible
//    as UART instants lining up across processes.
//
//  * FormatFleetStats renders the per-node execution/attestation summary
//    table printed by `tlfleetd --stats` (and reused by tests), including
//    fleet aggregates and the fleet-wide fast-path counters.
//
// Like the rest of observe/, this file has no dependency on src/fleet/ —
// the fleet executor feeds plain rows and writers into it.

#ifndef TRUSTLITE_SRC_PLATFORM_OBSERVE_FLEET_TRACE_H_
#define TRUSTLITE_SRC_PLATFORM_OBSERVE_FLEET_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/platform/observe/chrome_trace.h"

namespace trustlite {

class FleetTraceAggregator {
 public:
  // Creates (and owns) the trace writer for one node. pid = node id;
  // configure lanes on the returned writer before attaching it to the
  // node's platform.
  ChromeTraceWriter* AddNode(int node_id, size_t max_events_per_node = 1u
                                                                       << 16);

  // Merged trace document: one traceEvents array, one process per node.
  std::string Json();

  size_t node_count() const { return writers_.size(); }
  size_t event_count() const;
  size_t dropped() const;

 private:
  std::vector<std::unique_ptr<ChromeTraceWriter>> writers_;
};

// One row of the fleet summary table.
struct FleetNodeStatsRow {
  int node_id = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t tx_bytes = 0;  // UART bytes harvested into the fabric.
  uint64_t rx_bytes = 0;  // UART bytes delivered from the fabric.
  bool halted = false;
  std::string state;  // Free-form ("verified", "quarantined: ...", "-").
  // Host-side work counters of the node's fast path (CpuStats and
  // Platform::fast_path_stats()); deterministic, so independent of the
  // fleet's thread count.
  uint64_t fusion_groups = 0;
  uint64_t fusion_retired = 0;
  uint64_t decode_misses = 0;
  uint64_t data_window_misses = 0;
  uint64_t mpu_checks = 0;  // Full EA-MPU checks.
  uint64_t irq_polls = 0;
  uint64_t trustlet_exceptions = 0;  // Secure-engine full-save entries.
};

// Fixed-width table plus aggregate totals (instructions, cycles as the max
// across nodes, message bytes) and one `fast-path:` line of the rows'
// fast-path counters summed over nodes: fused share of instructions,
// instructions per fused group, and trustlet exceptions per thousand
// node-cycles. `elapsed_seconds` > 0 appends the host-side aggregate
// simulation rate.
std::string FormatFleetStats(const std::vector<FleetNodeStatsRow>& rows,
                             double elapsed_seconds = 0.0);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_OBSERVE_FLEET_TRACE_H_
