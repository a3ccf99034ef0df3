// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/platform/observe/profiler.h"

#include <cinttypes>
#include <cstdio>

namespace trustlite {

int TrustletProfiler::AddLane(const std::string& name, uint32_t code_base,
                              uint32_t code_end, bool is_os) {
  const int index = map_.AddLane(name, code_base, code_end, is_os);
  LaneProfile profile;
  profile.name = name;
  profile.is_os = is_os;
  profile.code_base = code_base;
  profile.code_end = code_end;
  lanes_.push_back(profile);
  return index;
}

void TrustletProfiler::ConfigureFromReport(const EaMpu& mpu,
                                           const LoadReport& report) {
  map_.ConfigureFromReport(mpu, report);
  for (int i = static_cast<int>(lanes_.size()); i < map_.num_lanes(); ++i) {
    const Lane& lane = map_.lane(i);
    LaneProfile profile;
    profile.name = lane.name;
    profile.is_os = lane.is_os;
    profile.code_base = lane.code_base;
    profile.code_end = lane.code_end;
    lanes_.push_back(profile);
  }
}

int TrustletProfiler::Ensure(uint32_t ip) { return map_.LaneFor(ip); }

LaneProfile& TrustletProfiler::Enter(uint32_t ip) {
  const int lane = Ensure(ip);
  LaneProfile& profile = lanes_[lane];
  if (lane != current_) {
    ++profile.entries;
    current_ = lane;
  }
  return profile;
}

void TrustletProfiler::OnInstruction(const InsnEvent& event) {
  LaneProfile& profile = Enter(event.ip);
  ++profile.instructions;
  profile.cycles += event.cost;
}

void TrustletProfiler::OnSleep(const SleepEvent& event) {
  LaneProfile& profile = Enter(event.ip);
  profile.sleep_cycles += event.cycles;
  profile.cycles += event.cycles;
}

void TrustletProfiler::OnTrap(const TrapEvent& event) {
  // Entry overhead is charged to the *interrupted subject* — this is what
  // makes the Sec. 5.4 42-cycle secure-trustlet entry show up as trustlet
  // overhead rather than OS overhead.
  const int lane = Ensure(event.subject_ip);
  LaneProfile& profile = lanes_[lane];
  profile.entry_cycles += event.entry_cycles;
  profile.cycles += event.entry_cycles;
  if (event.interrupt) {
    ++profile.interrupts;
  } else {
    ++profile.exceptions;
  }
  if (event.trustlet_path) {
    ++profile.secure_entries;
  }
}

void TrustletProfiler::OnHalt(const HaltEvent& event) {
  // Clean HALT retires carry an instruction cost but no InsnEvent (the
  // tracer's instruction count excludes it); the cycles still belong to the
  // halting lane. Trap halts carry cost == 0.
  Enter(event.ip).cycles += event.cost;
}

void TrustletProfiler::OnUartTx(const UartTxEvent& event) {
  ++lanes_[Ensure(event.ip)].uart_bytes;
}

void TrustletProfiler::OnMpuFault(const MpuFaultEvent& event) {
  ++lanes_[Ensure(event.ip)].mpu_faults;
}

void TrustletProfiler::OnReset(const ResetEvent&) {
  ++resets_;
  current_ = -1;
}

std::vector<LaneProfile> TrustletProfiler::Snapshot() const { return lanes_; }

uint64_t TrustletProfiler::total_cycles() const {
  uint64_t total = 0;
  for (const LaneProfile& profile : lanes_) {
    total += profile.cycles;
  }
  return total;
}

uint64_t TrustletProfiler::os_cycles() const {
  uint64_t total = 0;
  for (const LaneProfile& profile : lanes_) {
    if (profile.is_os) {
      total += profile.cycles;
    }
  }
  return total;
}

uint64_t TrustletProfiler::trustlet_cycles() const {
  uint64_t total = 0;
  for (size_t i = 1; i < lanes_.size(); ++i) {
    if (!lanes_[i].is_os) {
      total += lanes_[i].cycles;
    }
  }
  return total;
}

uint64_t TrustletProfiler::untrusted_cycles() const {
  return lanes_.empty() ? 0 : lanes_[0].cycles;
}

void TrustletProfiler::Clear() {
  for (LaneProfile& profile : lanes_) {
    profile.instructions = 0;
    profile.cycles = 0;
    profile.sleep_cycles = 0;
    profile.entry_cycles = 0;
    profile.exceptions = 0;
    profile.interrupts = 0;
    profile.secure_entries = 0;
    profile.entries = 0;
    profile.mpu_faults = 0;
    profile.uart_bytes = 0;
  }
  current_ = -1;
  resets_ = 0;
  fp_decode_hits_ = 0;
  fp_decode_misses_ = 0;
  fp_fusion_groups_ = 0;
  fp_fusion_retired_ = 0;
  fp_total_retired_ = 0;
}

std::string TrustletProfiler::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-14s %12s %12s %10s %10s %6s %6s %7s %6s %5s\n", "lane",
                "instructions", "cycles", "sleep-cyc", "entry-cyc", "exc",
                "irq", "sec-ent", "fault", "uart");
  out += line;
  const uint64_t total = total_cycles();
  for (const LaneProfile& profile : lanes_) {
    std::snprintf(line, sizeof(line),
                  "%-14s %12" PRIu64 " %12" PRIu64 " %10" PRIu64 " %10" PRIu64
                  " %6" PRIu64 " %6" PRIu64 " %7" PRIu64 " %6" PRIu64
                  " %5" PRIu64 "\n",
                  profile.name.c_str(), profile.instructions, profile.cycles,
                  profile.sleep_cycles, profile.entry_cycles,
                  profile.exceptions, profile.interrupts,
                  profile.secure_entries, profile.mpu_faults,
                  profile.uart_bytes);
    out += line;
  }
  const uint64_t os = os_cycles();
  const uint64_t tl = trustlet_cycles();
  const uint64_t un = untrusted_cycles();
  auto pct = [total](uint64_t part) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(total);
  };
  std::snprintf(line, sizeof(line),
                "split: os %" PRIu64 " (%.1f%%)  trustlets %" PRIu64
                " (%.1f%%)  untrusted %" PRIu64 " (%.1f%%)  total %" PRIu64
                "\n",
                os, pct(os), tl, pct(tl), un, pct(un), total);
  out += line;
  if (fp_decode_hits_ + fp_decode_misses_ + fp_fusion_groups_ +
          fp_fusion_retired_ !=
      0) {
    const uint64_t decode_total = fp_decode_hits_ + fp_decode_misses_;
    std::snprintf(
        line, sizeof(line),
        "fast-path: decode hit-rate %.1f%%  fused retires %" PRIu64
        " of %" PRIu64 " (%.1f%%)  groups %" PRIu64 "\n",
        decode_total == 0 ? 0.0
                          : 100.0 * static_cast<double>(fp_decode_hits_) /
                                static_cast<double>(decode_total),
        fp_fusion_retired_, fp_total_retired_,
        fp_total_retired_ == 0
            ? 0.0
            : 100.0 * static_cast<double>(fp_fusion_retired_) /
                  static_cast<double>(fp_total_retired_),
        fp_fusion_groups_);
    out += line;
  }
  return out;
}

void TrustletProfiler::SetFastPathCounters(uint64_t decode_hits,
                                           uint64_t decode_misses,
                                           uint64_t fusion_groups,
                                           uint64_t fusion_retired,
                                           uint64_t total_retired) {
  fp_decode_hits_ = decode_hits;
  fp_decode_misses_ = decode_misses;
  fp_fusion_groups_ = fusion_groups;
  fp_fusion_retired_ = fusion_retired;
  fp_total_retired_ = total_retired;
}

}  // namespace trustlite
