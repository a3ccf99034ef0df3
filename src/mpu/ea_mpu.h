// Copyright 2026 The TrustLite Reproduction Authors.
//
// Execution-Aware Memory Protection Unit (EA-MPU) — the paper's core
// hardware contribution (Sec. 3.2).
//
// The unit holds two programmable banks, both exposed as MMIO registers so
// that the Secure Loader configures protection with plain stores and can
// then lock the unit against later modification (Sec. 3.5):
//
//  * Region descriptors: BASE, END, ATTR (3 writes per region — matching the
//    "three additional writes to MPU registers for each protection region"
//    cost stated in Sec. 5.3) plus an SP_SLOT register used only by the
//    secure exception engine (the per-code-region 32-bit register of
//    Sec. 5.1).
//  * Rules: one packed word each, linking a *subject* (code) region to an
//    *object* region with r/w/x permissions. This realizes the access-control
//    matrix of Fig. 3.
//
// Check semantics (Fig. 2): the subject of every access is the enabled
// region containing `curr_IP` (or "unprotected" if none). An address covered
// by at least one enabled region is accessible only via a matching rule; an
// address covered by no region is open (untrusted background memory — the
// OS and apps need no rules of their own unless the loader protects them).
//
// Execute permission across regions implements the prototype's entry-vector
// convention (Sec. 5.1): a cross-region x rule admits fetches only at the
// object region's first word; a self-rule (S->S, x) admits the whole region.
//
// A compatibility mode turns the unit into a conventional MPU: rules with
// subject == kSubjectAny and a privilege filter, used as the non-execution-
// aware baseline in tests and benches.

#ifndef TRUSTLITE_SRC_MPU_EA_MPU_H_
#define TRUSTLITE_SRC_MPU_EA_MPU_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/bus.h"
#include "src/mem/device.h"
#include "src/mem/layout.h"
#include "src/platform/observe/events.h"

namespace trustlite {

// Register map (byte offsets from the MMIO base).
inline constexpr uint32_t kMpuRegCtrl = 0x000;
inline constexpr uint32_t kMpuRegFaultIp = 0x004;
inline constexpr uint32_t kMpuRegFaultAddr = 0x008;
inline constexpr uint32_t kMpuRegFaultInfo = 0x00C;
inline constexpr uint32_t kMpuRegRegionCount = 0x010;
inline constexpr uint32_t kMpuRegRuleCount = 0x014;
inline constexpr uint32_t kMpuRegionBank = 0x100;  // 16 bytes per region
inline constexpr uint32_t kMpuRegionStride = 16;
inline constexpr uint32_t kMpuRuleBank = 0x800;  // 4 bytes per rule

// Bank capacities of the 4 KiB register block: the region bank ends at or
// below the rule bank (so every region index stays below kMpuSubjectAny),
// and the rule bank at the end of the block.
inline constexpr uint32_t kMpuMaxRegions =
    (kMpuRuleBank - kMpuRegionBank) / kMpuRegionStride;
inline constexpr uint32_t kMpuMaxRules = (kMmioBlockSize - kMpuRuleBank) / 4;

// CTRL bits.
inline constexpr uint32_t kMpuCtrlEnable = 1u << 0;
inline constexpr uint32_t kMpuCtrlLock = 1u << 1;
inline constexpr uint32_t kMpuCtrlCompatMode = 1u << 2;

// Region ATTR bits.
inline constexpr uint32_t kMpuAttrEnable = 1u << 0;
inline constexpr uint32_t kMpuAttrLock = 1u << 1;
inline constexpr uint32_t kMpuAttrCode = 1u << 2;  // Code (subject) region.
inline constexpr uint32_t kMpuAttrOs = 1u << 3;    // OS/handler region.

// Rule word fields.
inline constexpr uint32_t kMpuRuleSubjectShift = 0;   // bits [7:0]
inline constexpr uint32_t kMpuRuleObjectShift = 8;    // bits [15:8]
inline constexpr uint32_t kMpuRuleRead = 1u << 16;
inline constexpr uint32_t kMpuRuleWrite = 1u << 17;
inline constexpr uint32_t kMpuRuleExec = 1u << 18;
inline constexpr uint32_t kMpuRuleEnable = 1u << 19;
inline constexpr uint32_t kMpuRulePrivShift = 20;  // bits [21:20]
inline constexpr uint32_t kMpuSubjectAny = 0xFF;

// Privilege filters (compat mode only).
inline constexpr uint32_t kMpuPrivAny = 0;
inline constexpr uint32_t kMpuPrivUserOnly = 1;
inline constexpr uint32_t kMpuPrivSupervisorOnly = 2;

// FAULT_INFO fields.
inline constexpr uint32_t kMpuFaultValid = 1u << 31;

struct MpuRegion {
  uint32_t base = 0;
  uint32_t end = 0;  // exclusive
  uint32_t attr = 0;
  uint32_t sp_slot = 0;  // Trustlet Table SP save address (exceptions ext.)

  bool enabled() const { return (attr & kMpuAttrEnable) != 0; }
  bool Contains(uint32_t addr) const {
    return enabled() && addr >= base && addr < end;
  }
};

struct MpuStats {
  uint64_t checks = 0;
  uint64_t faults = 0;
  uint64_t mmio_writes = 0;
  // Fast-path counters (host-side; no architectural meaning). The subject
  // memo maps curr_IP -> code region over a validity interval.
  uint64_t subject_hits = 0;
  uint64_t subject_misses = 0;
  // Rule-bank evaluations, under the names they had as the misses of the
  // decision and fetch caches (fleetbench reports them): decision_misses
  // counts the data checks decided on the coverage-interval path (fast path
  // only), fetch_misses every fetch check.
  uint64_t decision_misses = 0;
  uint64_t fetch_misses = 0;
};

// The EA-MPU is both a ProtectionUnit (checks every bus access) and a Device
// (its own register file is memory-mapped and therefore subject to its own
// protection rules — the self-locking trick of Sec. 3.3/3.5).
class EaMpu : public Device, public ProtectionUnit {
 public:
  EaMpu(uint32_t mmio_base, int num_regions, int num_rules);

  // Hardware configuration (immutable after construction).
  int num_regions() const { return static_cast<int>(regions_.size()); }
  int num_rules() const { return static_cast<int>(rules_.size()); }

  // --- Device (MMIO register file) ---
  AccessResult Read(uint32_t offset, uint32_t width, uint32_t* value) override;
  AccessResult Write(uint32_t offset, uint32_t width, uint32_t value) override;
  void Reset() override;

  // --- ProtectionUnit ---
  AccessResult Check(const AccessContext& ctx, uint32_t addr,
                     uint32_t width) override;

  // --- Exception-engine wiring (hardware-internal, not guest-visible) ---
  // Region index of the enabled code region containing `ip`; nullopt when
  // `ip` runs from unprotected memory.
  std::optional<int> FindCodeRegion(uint32_t ip) const;
  const MpuRegion& region(int index) const { return regions_[index]; }
  bool enabled() const { return (ctrl_ & kMpuCtrlEnable) != 0; }
  bool locked() const { return (ctrl_ & kMpuCtrlLock) != 0; }

  // --- Fabrication-time configuration (Sec. 3.6 "hardware trustlets") ---
  // Hardwires a region / rule: the slot becomes immutable to software and
  // is re-established by Reset(), like a ROM-based SMART instantiation.
  // Optionally the unit itself is hardwired enabled. Call before guest
  // execution (models a synthesis-time choice).
  void HardwireRegion(int index, const MpuRegion& region);
  void HardwireRule(int index, uint32_t rule);
  void HardwireEnable();
  bool IsHardwiredRegion(int index) const;
  bool IsHardwiredRule(int index) const;

  // --- Host-side introspection ---
  const MpuStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MpuStats{}; }
  uint32_t ctrl() const { return ctrl_; }
  uint32_t rule(int index) const { return rules_[index]; }

  // Combinational depth of the fault-aggregation tree, in gate levels:
  // ceil(log2(regions)) (Sec. 5.3: "logarithmically increases in depth with
  // the number of checked memory regions").
  static int FaultTreeDepth(int num_regions);

  // Generation of the protection configuration (ctrl, regions, rules).
  // Bumped on every mutation; the subject and coverage memos and the CPU's
  // windows and fetch pins key on it, so reprogramming, locking, hardwiring
  // or Reset() invalidates every memoized interval and decision.
  uint64_t config_generation() const { return config_gen_; }

  // Advisory fetch decision for the interpreter's superinstruction builder:
  // would a fetch of `addr` issued by the instruction at `subject_ip` pass
  // under the current configuration and privilege state? Side-effect-free —
  // no stats, no fault latching, no check events — and valid only until
  // config_generation() changes (fused groups key on it).
  bool FetchWouldPass(uint32_t subject_ip, uint32_t addr,
                      bool privileged) const;

  // Advisory data-access window for the interpreter's load/store fast path:
  // when a read (or write, per `is_write`) of `addr` by the subject at
  // `subject_ip` is allowed, returns true with [*lo, *hi) set to the widest
  // address interval around `addr` over which that decision is uniform
  // (constant covering-region set; data rules are address-independent), and
  // [*subj_lo, *subj_hi) to the IP interval over which the subject
  // resolution holds. Returns false when the access is denied or the
  // coverage is too tangled to summarize. Side-effect-free like
  // FetchWouldPass — no stats, no fault latching, no check events — and
  // valid only until config_generation() changes.
  bool DataWindowFor(uint32_t subject_ip, bool privileged, bool is_write,
                     uint32_t addr, uint32_t* lo, uint64_t* hi,
                     uint32_t* subj_lo, uint64_t* subj_hi) const;

  // Host-side fast-path switch (differential-execution harness). When
  // disabled, every Check() resolves the subject and scans the access byte
  // by byte with no memo; guest-visible behavior must be bit-identical
  // either way.
  void SetFastPath(bool enabled) { fast_path_ = enabled; }
  bool fast_path() const { return fast_path_; }

  // Observability: fault telemetry goes to `sink`; per-Check rule-hit
  // telemetry (high volume) only when `want_checks`. Null = off.
  void SetEventSink(EventSink* sink, bool want_checks) {
    sink_ = sink;
    check_sink_ = want_checks ? sink : nullptr;
  }

 protected:
  // Snapshot hook: the full programmable state (CTRL, fault latches, region
  // bank with lock bits, rule bank, hardwired masks). Restore bypasses the
  // MMIO write path on purpose — lock bits forbid guest reprogramming but
  // must not forbid reinstating a checkpoint — and bumps the config
  // generation so every memoized decision is invalidated.
  void SerializeState(std::vector<uint8_t>* out) const override;
  Status RestoreState(const uint8_t* data, size_t size, bool commit) override;

 private:
  bool RegisterWriteAllowed(uint32_t offset) const;
  // `subject` is a code region index, or -1 for unprotected memory (as in
  // SubjectCache) in the decision procedures below.
  bool RuleAllows(const AccessContext& ctx, int subject, int object,
                  uint32_t addr) const;

  // The per-address decision: `addr` is allowed when no enabled region
  // covers it, or when a rule of a covering region grants it. Fetches are
  // judged at their address; data accesses through DataAllowedByteWise.
  bool AddressAllowed(const AccessContext& ctx, int subject,
                      uint32_t addr) const;
  bool DataAllowedByteWise(const AccessContext& ctx, int subject,
                           uint32_t addr, uint32_t width) const;

  // --- Access-decision fast path (behaviour-preserving memoization) ---
  // Subject resolution: FindCodeRegion(ip) together with the largest
  // interval [lo, hi) around ip over which the answer is constant given the
  // current region bank (accounts for first-match precedence).
  struct SubjectCache {
    uint64_t gen = 0;
    uint32_t lo = 0;
    uint64_t hi = 0;  // Exclusive.
    int subject = -1;  // Region index, or -1 for "unprotected".
  };
  SubjectCache ResolveSubject(uint32_t ip) const;
  int SubjectFor(uint32_t ip);  // ResolveSubject's subject, memoized.
  // Object coverage: the set of enabled regions containing an address,
  // with its constancy interval.
  struct CoverageCache {
    uint64_t gen = 0;
    uint32_t lo = 0;
    uint64_t hi = 0;  // Exclusive; 2^32 expressible.
    uint8_t count = 0;
    bool overflow = false;  // > kMaxCoverage containing regions: slow path.
    uint8_t regions[8];
  };
  static constexpr int kMaxCoverage = 8;
  CoverageCache ResolveCoverage(uint32_t addr) const;
  const CoverageCache& CoverageFor(uint32_t addr);  // Memoized.
  // The data decision over a whole coverage interval: open when no region
  // covers it, else allowed when a rule of a covering region grants it
  // (data rules never consult the address). `cov` must not overflow.
  bool CoverageAllows(const AccessContext& ctx, int subject,
                      const CoverageCache& cov) const;
  void BumpConfigGen() { ++config_gen_; }

  uint32_t ctrl_ = 0;
  uint32_t fault_ip_ = 0;
  uint32_t fault_addr_ = 0;
  uint32_t fault_info_ = 0;
  bool hardwired_enable_ = false;
  std::vector<MpuRegion> regions_;
  std::vector<uint32_t> rules_;
  std::vector<bool> region_hardwired_;
  std::vector<bool> rule_hardwired_;
  MpuStats stats_;
  EventSink* sink_ = nullptr;        // Fault telemetry.
  EventSink* check_sink_ = nullptr;  // Per-Check telemetry (opt-in).

  uint64_t config_gen_ = 1;
  bool fast_path_ = true;
  SubjectCache subject_cache_;
  CoverageCache coverage_cache_;
};

// Convenience encoder for rule words.
uint32_t EncodeMpuRule(uint32_t subject, uint32_t object, bool r, bool w,
                       bool x, uint32_t priv_filter = kMpuPrivAny);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_MPU_EA_MPU_H_
