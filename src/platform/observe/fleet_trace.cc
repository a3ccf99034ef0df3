// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/observe/fleet_trace.h"

#include <cinttypes>
#include <cstdio>

namespace trustlite {

ChromeTraceWriter* FleetTraceAggregator::AddNode(int node_id,
                                                 size_t max_events_per_node) {
  auto writer =
      std::make_unique<ChromeTraceWriter>(max_events_per_node, node_id);
  char name[32];
  std::snprintf(name, sizeof(name), "node-%d", node_id);
  writer->set_process_name(name);
  writers_.push_back(std::move(writer));
  return writers_.back().get();
}

size_t FleetTraceAggregator::event_count() const {
  size_t total = 0;
  for (const auto& writer : writers_) {
    total += writer->event_count();
  }
  return total;
}

size_t FleetTraceAggregator::dropped() const {
  size_t total = 0;
  for (const auto& writer : writers_) {
    total += writer->dropped();
  }
  return total;
}

std::string FleetTraceAggregator::Json() {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& writer : writers_) {
    writer->AppendEvents(&out, &first);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\n],\n\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"cycles_per_us\":1,\"nodes\":%zu,\"dropped\":%zu}}\n",
                writers_.size(), dropped());
  out += buf;
  return out;
}

std::string FormatFleetStats(const std::vector<FleetNodeStatsRow>& rows,
                             double elapsed_seconds) {
  std::string out =
      "node  instructions      cycles          tx       rx  state\n";
  char buf[192];
  uint64_t total_insns = 0;
  uint64_t max_cycles = 0;
  uint64_t total_tx = 0;
  uint64_t total_rx = 0;
  for (const FleetNodeStatsRow& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%4d  %12" PRIu64 "  %10" PRIu64 "  %8" PRIu64 " %8" PRIu64
                  "  %s%s\n",
                  row.node_id, row.instructions, row.cycles, row.tx_bytes,
                  row.rx_bytes, row.state.empty() ? "-" : row.state.c_str(),
                  row.halted ? " (halted)" : "");
    out += buf;
    total_insns += row.instructions;
    max_cycles = row.cycles > max_cycles ? row.cycles : max_cycles;
    total_tx += row.tx_bytes;
    total_rx += row.rx_bytes;
  }
  std::snprintf(buf, sizeof(buf),
                "fleet: %zu nodes   %" PRIu64 " instructions   %" PRIu64
                " cycles (max)   %" PRIu64 " tx / %" PRIu64 " rx bytes\n",
                rows.size(), total_insns, max_cycles, total_tx, total_rx);
  out += buf;
  if (elapsed_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "aggregate: %.3g insn/s host-side (%.3f s elapsed)\n",
                  static_cast<double>(total_insns) / elapsed_seconds,
                  elapsed_seconds);
    out += buf;
  }
  return out;
}

}  // namespace trustlite
