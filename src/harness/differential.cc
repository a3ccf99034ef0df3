// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/harness/differential.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/isa/isa.h"
#include "src/mem/layout.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {

namespace {

std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

const char* EventName(StepEvent event) {
  switch (event) {
    case StepEvent::kExecuted: return "executed";
    case StepEvent::kException: return "exception";
    case StepEvent::kInterrupt: return "interrupt";
    case StepEvent::kHalted: return "halted";
    case StepEvent::kSleep: return "sleep";
  }
  return "?";
}

// Byte-for-byte device comparison via the host view of the backing store.
std::optional<Divergence> CompareRam(uint64_t step, const char* name,
                                     const Ram& a, const Ram& b) {
  const std::span<const uint8_t> da = a.data();
  const std::span<const uint8_t> db = b.data();
  if (std::equal(da.begin(), da.end(), db.begin(), db.end())) {
    return std::nullopt;
  }
  const auto [ia, ib] = std::mismatch(da.begin(), da.end(), db.begin());
  return Divergence{step, std::string(name) + " byte at " +
                              Hex(a.base() + (ia - da.begin())) +
                              ": fast=" + Hex(*ia) + " ref=" + Hex(*ib)};
}

// The write-map invariant (DESIGN.md §15): a page the map does not mark was
// never written, so it reads zero. A page the snapshot walk skips for lack
// of a mark would otherwise drop out of digests and snapshots unseen.
std::optional<Divergence> CheckWriteMap(uint64_t step, const char* side,
                                        const Ram& ram) {
  static constexpr uint8_t kZeroPage[kRamPageSize] = {};
  const std::span<const uint8_t> bytes = ram.data();
  const std::span<const uint8_t> marks = ram.write_map();
  for (size_t page = 0; page < marks.size(); ++page) {
    const size_t offset = page * kRamPageSize;
    if (marks[page] == 0 &&
        std::memcmp(bytes.data() + offset, kZeroPage,
                    std::min<size_t>(kRamPageSize, bytes.size() - offset)) !=
            0) {
      return Divergence{step, std::string(side) + " " + ram.name() + " page " +
                                  Hex(page) + " at " +
                                  Hex(ram.base() + offset) +
                                  " is non-zero but not in the write map"};
    }
  }
  return std::nullopt;
}

}  // namespace

DifferentialExecutor::DifferentialExecutor(const PlatformConfig& config) {
  PlatformConfig fast_config = config;
  fast_config.fast_path = true;
  PlatformConfig ref_config = config;
  ref_config.fast_path = false;
  fast_ = std::make_unique<Platform>(fast_config);
  ref_ = std::make_unique<Platform>(ref_config);
}

void DifferentialExecutor::ForBoth(const std::function<void(Platform&)>& fn) {
  fn(*fast_);
  fn(*ref_);
}

std::optional<Divergence> DifferentialExecutor::CompareArchState(
    uint64_t step) {
  Cpu& a = fast_->cpu();
  Cpu& b = ref_->cpu();
  if (a.ip() != b.ip()) {
    return Divergence{step,
                      "ip: fast=" + Hex(a.ip()) + " ref=" + Hex(b.ip())};
  }
  if (a.flags() != b.flags()) {
    return Divergence{step, "flags: fast=" + Hex(a.flags()) +
                                " ref=" + Hex(b.flags())};
  }
  if (a.halted() != b.halted()) {
    return Divergence{step, std::string("halted: fast=") +
                                (a.halted() ? "yes" : "no") +
                                " ref=" + (b.halted() ? "yes" : "no")};
  }
  if (a.cycles() != b.cycles()) {
    return Divergence{step, "cycles: fast=" + Hex(a.cycles()) +
                                " ref=" + Hex(b.cycles())};
  }
  for (int r = 0; r < kNumRegisters; ++r) {
    if (a.reg(r) != b.reg(r)) {
      return Divergence{step, RegisterName(r) + ": fast=" + Hex(a.reg(r)) +
                                  " ref=" + Hex(b.reg(r))};
    }
  }
  return std::nullopt;
}

std::optional<Divergence> DifferentialExecutor::StepBoth(uint64_t step) {
  const StepEvent ea = fast_->cpu().Step();
  const StepEvent eb = ref_->cpu().Step();
  if (ea != eb) {
    return Divergence{step, std::string("event: fast=") + EventName(ea) +
                                " ref=" + EventName(eb)};
  }
  return CompareArchState(step);
}

std::optional<Divergence> DifferentialExecutor::CompareFinalState(
    uint64_t step) {
  if (std::optional<Divergence> d = CompareArchState(step)) {
    return d;
  }
  if (std::optional<Divergence> d =
          CompareRam(step, "sram", fast_->sram(), ref_->sram())) {
    return d;
  }
  if (std::optional<Divergence> d =
          CompareRam(step, "dram", fast_->dram(), ref_->dram())) {
    return d;
  }
  if (std::optional<Divergence> d =
          CompareRam(step, "prom", fast_->prom(), ref_->prom())) {
    return d;
  }
  for (Platform* platform : {fast_.get(), ref_.get()}) {
    const char* side = platform == fast_.get() ? "fast" : "ref";
    for (const Ram* ram : std::initializer_list<const Ram*>{
             &platform->sram(), &platform->dram(), &platform->prom()}) {
      if (std::optional<Divergence> d = CheckWriteMap(step, side, *ram)) {
        return d;
      }
    }
  }
  // MPU fault registers (guest-visible latches) and retirement counters.
  if (fast_->mpu() != nullptr && ref_->mpu() != nullptr) {
    for (uint32_t offset :
         {kMpuRegCtrl, kMpuRegFaultIp, kMpuRegFaultAddr, kMpuRegFaultInfo}) {
      uint32_t va = 0;
      uint32_t vb = 0;
      fast_->mpu()->Read(offset, 4, &va);
      ref_->mpu()->Read(offset, 4, &vb);
      if (va != vb) {
        return Divergence{step, "mpu reg +" + Hex(offset) +
                                    ": fast=" + Hex(va) + " ref=" + Hex(vb)};
      }
    }
  }
  const CpuStats& sa = fast_->cpu().stats();
  const CpuStats& sb = ref_->cpu().stats();
  if (sa.instructions != sb.instructions || sa.exceptions != sb.exceptions ||
      sa.interrupts != sb.interrupts ||
      sa.trustlet_interrupts != sb.trustlet_interrupts ||
      sa.sleep_cycles != sb.sleep_cycles) {
    return Divergence{step, "retirement counters: fast=" +
                                Hex(sa.instructions) + "/" +
                                Hex(sa.exceptions) + "/" + Hex(sa.interrupts) +
                                "/" + Hex(sa.sleep_cycles) +
                                " ref=" + Hex(sb.instructions) + "/" +
                                Hex(sb.exceptions) + "/" +
                                Hex(sb.interrupts) + "/" +
                                Hex(sb.sleep_cycles)};
  }
  const TrapInfo& ta = fast_->cpu().trap();
  const TrapInfo& tb = ref_->cpu().trap();
  if (ta.valid != tb.valid || ta.exception_class != tb.exception_class ||
      ta.ip != tb.ip || ta.addr != tb.addr) {
    return Divergence{step, "trap: fast=(" + Hex(ta.exception_class) + "," +
                                Hex(ta.ip) + "," + Hex(ta.addr) + ") ref=(" +
                                Hex(tb.exception_class) + "," + Hex(tb.ip) +
                                "," + Hex(tb.addr) + ")"};
  }
  return std::nullopt;
}

std::optional<Divergence> DifferentialExecutor::RunWindowed(uint64_t max_steps,
                                                            uint64_t window) {
  if (window == 0) {
    window = 1;
  }
  uint64_t done = 0;
  bool cycle_window = false;
  while (done < max_steps &&
         !(fast_->cpu().halted() && ref_->cpu().halted())) {
    const uint64_t quota = std::min(window, max_steps - done);
    // Windows alternate between the two entry points of the fast run loop:
    // an instruction budget, and a cycle target like a fleet quantum's.
    if (!fast_->cpu().halted()) {
      if (cycle_window) {
        fast_->cpu().RunUntilCycle(fast_->cpu().cycles() + quota);
      } else {
        fast_->cpu().Run(quota);
      }
    }
    cycle_window = !cycle_window;
    // The run loop's exception-storm watchdog is a host-side DoS bound, not
    // architecture: where exactly it halts inside a storm depends on the
    // run-call quantum, which the Step()-driven reference does not share.
    // Every window before the storm has already been compared; stop here
    // rather than report a phase mismatch inside the storm as a fast-path
    // bug. (Storm-free scenarios never hit this.)
    if (fast_->cpu().halted() && fast_->cpu().trap().valid &&
        std::string_view(fast_->cpu().trap().reason).find("watchdog") !=
            std::string_view::npos) {
      return std::nullopt;
    }
    // Chase the fast side's *cycle* counter, not its retire counter:
    // faulting instructions and trap-halts advance cycles without retiring,
    // so a retire-count chase stops short whenever the fast side's window
    // ended on exception entries. Every step costs at least one cycle and
    // both sides must be cycle-identical, so equal cycles means the same
    // instruction boundary. The step bound only guards against a divergence
    // where the reference's cycle stream falls behind forever. It is
    // budgeted in cycles: the fast side sleeps a whole wfi span in one go,
    // the reference one cycle per Step().
    const uint64_t target_cycle = fast_->cpu().cycles();
    uint64_t chase_guard =
        (target_cycle - std::min(target_cycle, ref_->cpu().cycles())) +
        16 * quota + 4096;
    while (!ref_->cpu().halted() && ref_->cpu().cycles() < target_cycle) {
      ref_->cpu().Step();
      if (--chase_guard == 0) {
        Divergence d;
        d.step = done;
        d.what = "reference failed to reach the fast side's cycle count";
        return d;
      }
    }
    done += quota;
    if (std::optional<Divergence> d = CompareArchState(done)) {
      return d;
    }
  }
  return CompareFinalState(max_steps);
}

std::optional<Divergence> DifferentialExecutor::Run(uint64_t max_steps) {
  for (uint64_t step = 0; step < max_steps; ++step) {
    if (fast_->cpu().halted() && ref_->cpu().halted()) {
      break;
    }
    if (std::optional<Divergence> d = StepBoth(step)) {
      return d;
    }
  }
  return CompareFinalState(max_steps);
}

namespace {

// Advances the CPU by `n` Step() calls (NOT retired instructions — this
// must count exactly like the lockstep loop so replayed step indices line
// up). Stepping a halted CPU is a no-op, so windows stay aligned even when
// one side halts mid-window.
void StepN(Platform& platform, uint64_t n) {
  for (uint64_t i = 0; i < n && !platform.cpu().halted(); ++i) {
    platform.cpu().Step();
  }
}

// Record-replay checkpoints carry no digest: the two platforms are
// in-process and the snapshot round-trips through memory, so per-chunk
// CRCs are already more than the transport needs.
std::vector<uint8_t> Checkpoint(Platform& platform) {
  SnapshotSaveOptions options;
  options.include_digest = false;
  Result<std::vector<uint8_t>> snapshot = SavePlatform(platform, options);
  return snapshot.ok() ? std::move(*snapshot) : std::vector<uint8_t>{};
}

bool RestoreCheckpoint(Platform* platform,
                       const std::vector<uint8_t>& snapshot) {
  return RestorePlatform(platform, snapshot).ok();
}

}  // namespace

DifferentialExecutor::CheckpointReplay DifferentialExecutor::RunCheckpointed(
    uint64_t max_steps, uint64_t checkpoint_interval) {
  CheckpointReplay report;
  if (checkpoint_interval == 0) {
    checkpoint_interval = 1;
  }
  std::vector<uint8_t> mark_fast = Checkpoint(*fast_);
  std::vector<uint8_t> mark_ref = Checkpoint(*ref_);
  ++report.checkpoints;

  uint64_t done = 0;
  while (done < max_steps) {
    if (fast_->cpu().halted() && ref_->cpu().halted()) {
      break;
    }
    const uint64_t window = std::min(checkpoint_interval, max_steps - done);
    StepN(*fast_, window);
    StepN(*ref_, window);
    done += window;

    if (CompareFinalState(done).has_value()) {
      // Dirty window: replay it from the last checkpoint, binary-searching
      // for the smallest k whose full-state comparison already mismatches.
      report.window_start = done - window;
      report.window_end = done;
      uint64_t lo = 1;        // Smallest candidate first-bad step count.
      uint64_t hi = window;   // Known bad.
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (!RestoreCheckpoint(fast_.get(), mark_fast) ||
            !RestoreCheckpoint(ref_.get(), mark_ref)) {
          report.divergence = Divergence{done, "checkpoint restore failed"};
          return report;
        }
        StepN(*fast_, mid);
        StepN(*ref_, mid);
        report.replayed_steps += 2 * mid;
        if (CompareFinalState(report.window_start + mid).has_value()) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      // Re-run to just before the first bad step and take it in lockstep,
      // so the report names the step exactly as Run() would.
      if (!RestoreCheckpoint(fast_.get(), mark_fast) ||
          !RestoreCheckpoint(ref_.get(), mark_ref)) {
        report.divergence = Divergence{done, "checkpoint restore failed"};
        return report;
      }
      StepN(*fast_, lo - 1);
      StepN(*ref_, lo - 1);
      report.replayed_steps += 2 * (lo - 1);
      const uint64_t bad_step = report.window_start + lo - 1;
      report.divergence = StepBoth(bad_step);
      ++report.replayed_steps;
      if (!report.divergence.has_value()) {
        // The step itself looked clean architecturally; the difference is
        // in memory or another latched register.
        report.divergence = CompareFinalState(bad_step + 1);
      }
      if (!report.divergence.has_value()) {
        report.divergence =
            Divergence{bad_step, "divergence vanished during replay "
                                 "(non-deterministic harness state?)"};
      }
      return report;
    }

    mark_fast = Checkpoint(*fast_);
    mark_ref = Checkpoint(*ref_);
    ++report.checkpoints;
  }
  report.divergence = CompareFinalState(done);
  return report;
}

namespace {

// Address pool the generator aims loads/stores and jump targets at: open
// SRAM around the program, the SRAM base, DRAM, the MMIO blocks and the top
// of the 32-bit address space (wraparound hunting).
uint32_t BiasedAddress(Xoshiro256& rng, uint32_t program_base) {
  switch (rng.NextBelow(8)) {
    case 0:
      return program_base + static_cast<uint32_t>(rng.NextBelow(0x800));
    case 1:
      return kSramBase + static_cast<uint32_t>(rng.NextBelow(kSramSize));
    case 2:
      return kDramBase + static_cast<uint32_t>(rng.NextBelow(0x1000));
    case 3:
      return kMpuMmioBase + static_cast<uint32_t>(rng.NextBelow(0xA00));
    case 4:
      return kTimerBase + static_cast<uint32_t>(rng.NextBelow(0x20));
    case 5:
      return 0xFFFFFF00u + static_cast<uint32_t>(rng.NextBelow(0x100));
    case 6:
      return kPromBase + static_cast<uint32_t>(rng.NextBelow(kPromSize));
    default:
      return rng.Next32();
  }
}

uint32_t RandomInstructionWord(Xoshiro256& rng, uint32_t program_base) {
  const auto reg = [&rng]() {
    return static_cast<uint8_t>(rng.NextBelow(kNumRegisters));
  };
  switch (rng.NextBelow(16)) {
    case 0:  // Aim a register at an interesting address.
      return Encode({Opcode::kMovi, reg(), 0, 0,
                     SignExtend(BiasedAddress(rng, program_base), 18)});
    case 1:  // Build a high address (movi is limited to 18 bits).
      return Encode({Opcode::kLui, reg(), 0, 0,
                     static_cast<int32_t>(rng.NextBelow(1u << 22))});
    case 2:
      return Encode({Opcode::kLdw, reg(), reg(), 0,
                     static_cast<int32_t>(rng.NextBelow(64)) * 4 - 128});
    case 3:
      return Encode({Opcode::kStw, reg(), reg(), 0,
                     static_cast<int32_t>(rng.NextBelow(64)) * 4 - 128});
    case 4:
      return Encode({Opcode::kLdb, reg(), reg(), 0,
                     static_cast<int32_t>(rng.NextBelow(256)) - 128});
    case 5:
      return Encode({Opcode::kStb, reg(), reg(), 0,
                     static_cast<int32_t>(rng.NextBelow(256)) - 128});
    case 6: {  // Short branch (keeps loops tight).
      const Opcode branches[] = {Opcode::kBeq,  Opcode::kBne, Opcode::kBlt,
                                 Opcode::kBge,  Opcode::kBltu,
                                 Opcode::kBgeu};
      return Encode({branches[rng.NextBelow(6)], reg(), reg(), 0,
                     (static_cast<int32_t>(rng.NextBelow(8)) - 4) * 4});
    }
    case 7:  // Short jump.
      return Encode({Opcode::kJmp, 0, 0, 0,
                     (static_cast<int32_t>(rng.NextBelow(8)) - 3) * 4});
    case 8:  // Register-indirect jump (wild control flow).
      return Encode({Opcode::kJr, 0, reg(), 0, 0});
    case 9:
      return Encode({Opcode::kJalr, 0, reg(), 0, 0});
    case 10:
      return Encode(
          {Opcode::kSwi, 0, 0, 0, static_cast<int32_t>(rng.NextBelow(4))});
    case 11: {  // System / flag ops; wfi sleeps under the random timer.
      const Opcode sys[] = {Opcode::kCli, Opcode::kSti, Opcode::kIret,
                            Opcode::kNop, Opcode::kWfi};
      return Encode({sys[rng.NextBelow(5)], 0, 0, 0, 0});
    }
    case 12:  // Undefined opcode word (illegal-instruction path).
      return (static_cast<uint32_t>(41 + rng.NextBelow(7)) << 26) |
             rng.NextBelow(1u << 26);
    default: {  // ALU filler.
      const Opcode alu[] = {Opcode::kAdd, Opcode::kSub,  Opcode::kXor,
                            Opcode::kAnd, Opcode::kOr,   Opcode::kShl,
                            Opcode::kMul, Opcode::kSltu, Opcode::kAddi};
      const Opcode op = alu[rng.NextBelow(9)];
      if (FormatOf(op) == InstructionFormat::kI) {
        return Encode({op, reg(), reg(), 0, SignExtend(rng.Next32(), 18)});
      }
      return Encode({op, reg(), reg(), reg(), 0});
    }
  }
}

}  // namespace

uint32_t BuildRandomScenario(DifferentialExecutor& diff, uint64_t seed,
                             const RandomProgramOptions& options) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 0x53544C54 /*'TLST'*/);

  std::vector<uint8_t> program;
  for (int i = 0; i < options.num_words; ++i) {
    AppendLe32(program, RandomInstructionWord(rng, options.program_base));
  }
  AppendLe32(program, Encode({Opcode::kHalt, 0, 0, 0, 0}));

  // Pre-plan every decision so both platforms receive the identical
  // scenario (the rng is consumed once, not once per platform).
  struct MpuWrite {
    uint32_t offset;
    uint32_t value;
  };
  std::vector<MpuWrite> mpu_writes;
  if (options.randomize_mpu && rng.NextBelow(4) != 0) {
    const int regions = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < regions; ++i) {
      // Regions in SRAM or at the top of the address space (wraparound
      // hunting near 2^32).
      uint32_t base;
      uint32_t end;
      if (rng.NextBelow(4) == 0) {
        base = 0xFFFFF000u + static_cast<uint32_t>(rng.NextBelow(0xE00)) * 4;
        end = base + static_cast<uint32_t>(1 + rng.NextBelow(0x300)) * 4;
        if (end < base) {
          end = 0xFFFFFFFCu;
        }
      } else {
        base = kSramBase + static_cast<uint32_t>(rng.NextBelow(0x8000)) * 4;
        end = base + static_cast<uint32_t>(1 + rng.NextBelow(0x400)) * 4;
      }
      const uint32_t stride = kMpuRegionStride * static_cast<uint32_t>(i);
      mpu_writes.push_back({kMpuRegionBank + stride, base});
      mpu_writes.push_back({kMpuRegionBank + stride + 4, end});
      mpu_writes.push_back(
          {kMpuRegionBank + stride + 8,
           kMpuAttrEnable | (rng.NextBool() ? kMpuAttrCode : 0u)});
    }
    const int rules = static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < rules; ++i) {
      mpu_writes.push_back(
          {kMpuRuleBank + static_cast<uint32_t>(i) * 4,
           EncodeMpuRule(static_cast<uint32_t>(rng.NextBelow(4)),
                         static_cast<uint32_t>(rng.NextBelow(4)),
                         rng.NextBool(), rng.NextBool(), rng.NextBool())});
    }
    uint32_t ctrl = kMpuCtrlEnable;
    if (rng.NextBelow(4) == 0) {
      ctrl |= kMpuCtrlLock;
    }
    mpu_writes.push_back({kMpuRegCtrl, ctrl});
  }

  std::vector<MpuWrite> handler_writes;  // SysCtl offsets.
  if (options.randomize_handlers) {
    for (uint32_t idx = 0; idx < kSysCtlNumHandlers; ++idx) {
      if (rng.NextBelow(2) == 0) {
        continue;  // Leave unhandled (halt path).
      }
      const uint32_t handler =
          options.program_base +
          static_cast<uint32_t>(rng.NextBelow(
              static_cast<uint64_t>(options.num_words))) * 4;
      handler_writes.push_back({kSysCtlRegHandlerBase + idx * 4, handler});
    }
  }

  bool arm_timer = false;
  uint32_t timer_period = 0;
  uint32_t timer_handler = 0;
  if (options.randomize_timer && rng.NextBelow(2) == 0) {
    arm_timer = true;
    timer_period = 8 + static_cast<uint32_t>(rng.NextBelow(120));
    timer_handler =
        options.program_base +
        static_cast<uint32_t>(
            rng.NextBelow(static_cast<uint64_t>(options.num_words))) * 4;
  }

  uint32_t regs[kNumRegisters];
  for (uint32_t& r : regs) {
    r = rng.NextBool() ? BiasedAddress(rng, options.program_base)
                       : rng.Next32();
  }
  // A usable stack most of the time, so IRET/SWI frames land in RAM.
  if (rng.NextBelow(4) != 0) {
    regs[kRegSp] = options.program_base + 0x4000 +
                   static_cast<uint32_t>(rng.NextBelow(0x400)) * 4;
  }

  const uint32_t entry = options.program_base;
  diff.ForBoth([&](Platform& platform) {
    platform.bus().HostWriteBytes(entry, program);
    for (const MpuWrite& w : mpu_writes) {
      platform.bus().HostWriteWord(kMpuMmioBase + w.offset, w.value);
    }
    for (const MpuWrite& w : handler_writes) {
      platform.bus().HostWriteWord(kSysCtlBase + w.offset, w.value);
    }
    if (arm_timer) {
      platform.bus().HostWriteWord(kTimerBase + kTimerRegHandler,
                                   timer_handler);
      platform.bus().HostWriteWord(kTimerBase + kTimerRegPeriod,
                                   timer_period);
      platform.bus().HostWriteWord(
          kTimerBase + kTimerRegCtrl,
          kTimerCtrlEnable | kTimerCtrlIrqEnable | kTimerCtrlAutoReload);
    }
    platform.cpu().Reset(entry);
    for (int r = 0; r < kNumRegisters; ++r) {
      platform.cpu().set_reg(r, regs[r]);
    }
    // Interrupts on for the timer path (Reset leaves them disabled).
    if (arm_timer) {
      platform.cpu().set_flags(platform.cpu().flags() | kFlagIf);
    }
  });
  return entry;
}

std::optional<Divergence> RunRandomProgramDiff(
    uint64_t seed, uint64_t max_steps, const RandomProgramOptions& options,
    const PlatformConfig& config) {
  DifferentialExecutor diff(config);
  BuildRandomScenario(diff, seed, options);
  return diff.Run(max_steps);
}

std::optional<Divergence> RunRandomProgramDiffWindowed(
    uint64_t seed, uint64_t max_steps, uint64_t window,
    const RandomProgramOptions& options, const PlatformConfig& config) {
  DifferentialExecutor diff(config);
  BuildRandomScenario(diff, seed, options);
  return diff.RunWindowed(max_steps, window);
}

}  // namespace trustlite
