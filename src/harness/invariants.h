// Copyright 2026 The TrustLite Reproduction Authors.
//
// Runtime invariant checker for the fault-injection harness (DESIGN.md
// Sec. 11). Re-evaluates the DESIGN.md Sec. 7 security properties against a
// live Platform after every injected event:
//
//  * trustlet code and data (outside the stack/saved-frame window) are
//    bit-identical to the post-boot sentinel — no attacker path, injected
//    IRQ, DMA transaction or bit-flip in untrusted memory may alter them;
//  * the secure exception engine never exposes trustlet registers: after
//    every full-save entry (and after a double-fault halt on the trustlet
//    path) the general-purpose registers read as zero;
//  * cross-region execution lands only on a region's first word (the
//    entry-vector convention) — checked over the retired-instruction stream;
//  * the locked EA-MPU configuration (CTRL, region bank, rule bank) is
//    immutable;
//  * the Trustlet Table row is immutable except for its engine-updated
//    saved-SP word.
//
// The checker is deliberately independent of the MPU's fast-path memos: it
// reads state through host-side accessors and re-derives expectations from
// its own baseline snapshot.

#ifndef TRUSTLITE_SRC_HARNESS_INVARIANTS_H_
#define TRUSTLITE_SRC_HARNESS_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/loader/secure_loader.h"
#include "src/platform/platform.h"

namespace trustlite {

class InvariantChecker {
 public:
  // `victim_id` names the trustlet whose isolation is asserted; it must be
  // present in `report`. The sentinel excludes the top `stack_window` bytes
  // of the data region (the trustlet's own stack and saved-state frame).
  InvariantChecker(Platform* platform, const LoadReport& report,
                   uint32_t victim_id, uint32_t stack_window = 0x180);

  // Captures the post-boot baseline: MPU configuration, Trustlet Table
  // bytes, victim code bytes; writes a fresh random data sentinel derived
  // from `sentinel_seed`. Call after BootAndLaunch and again after any
  // legitimate platform reset + reboot.
  void Baseline(uint64_t sentinel_seed);

  // Cheap per-step check. Call with the IP sampled *before* the step and
  // the event it returned. Detects secure-engine entries (via the
  // trustlet_interrupts counter) and trap halts on the trustlet path, and
  // verifies the register-clear property; tracks the retired-instruction
  // stream for the entry-vector property.
  void AfterStep(uint32_t pre_step_ip, StepEvent event);

  // Full re-evaluation of the memory/table/configuration invariants.
  void CheckNow(const std::string& context);

  const std::vector<std::string>& violations() const { return violations_; }
  // Moves the accumulated violations out (the campaign drains the checker
  // before rebuilding it across a reboot).
  std::vector<std::string> TakeViolations() {
    std::vector<std::string> out = std::move(violations_);
    violations_.clear();
    return out;
  }
  uint64_t checks_run() const { return checks_run_; }

 private:
  void Violation(const std::string& what);
  bool InVictimCode(uint32_t addr) const {
    return addr >= victim_code_base_ && addr < victim_code_end_;
  }
  void CheckRegistersClear(const char* why, bool include_sp);

  Platform* platform_;
  uint32_t victim_code_base_ = 0;
  uint32_t victim_code_end_ = 0;
  uint32_t victim_data_base_ = 0;
  uint32_t sentinel_size_ = 0;
  uint32_t tt_base_ = 0;
  uint32_t tt_size_ = 0;
  std::vector<uint32_t> tt_saved_sp_offsets_;  // Offsets into the TT bytes.

  // Baseline snapshots.
  std::vector<uint8_t> code_snapshot_;
  std::vector<uint8_t> sentinel_;
  std::vector<uint8_t> tt_snapshot_;  // Saved-SP words zeroed.
  uint32_t mpu_ctrl_snapshot_ = 0;
  std::vector<MpuRegion> region_snapshot_;
  std::vector<uint32_t> rule_snapshot_;

  // Per-step tracking.
  uint64_t last_trustlet_interrupts_ = 0;
  uint32_t last_executed_ip_ = 0;
  bool have_last_executed_ = false;

  uint64_t checks_run_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_HARNESS_INVARIANTS_H_
