// Copyright 2026 The TrustLite Reproduction Authors.
//
// Interpreter core. The instruction semantics live in the TL_SEMANTICS
// X-macro below, expanded once into the switch inside Execute(). Every
// dispatch path goes through it: Step() (and the fast_path=false reference
// loop over it), Wait(), and RunLoop()'s one dispatch site, where it is
// inlined, so the fast path differs from the reference only in how it
// fetches, decodes and checks, never in what an opcode does; the
// differential harness verifies the two lockstep
// (tests/differential_test.cc).

#include "src/cpu/cpu.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <memory>
#include <utility>

namespace trustlite {

namespace {

// Maps a bus access result onto the exception class ladder used everywhere
// an access can fault (loads, stores, IRET pops, fetches).
constexpr uint32_t ExcClassOf(AccessResult r) {
  return r == AccessResult::kProtFault    ? kExcMpuFault
         : r == AccessResult::kAlignFault ? kExcAlign
         : r == AccessResult::kReset      ? kExcReset
                                          : kExcBusError;
}

// Guest memory is little-endian; fused-group revalidation reassembles the
// instruction word from the device's host backing bytes, and the data-access
// windows read/write guest memory through the same stable pointers.
inline uint32_t LoadWordLe(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreWordLe(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// Opcodes allowed in the interior of a fused group: straight-line, cannot
// redirect control, and any fault they raise is delivered precisely by
// FinishExecute. SWI is excluded (it is an exception by construction), as
// are IRET (restores FLAGS, may change privilege mid-group) and the Sancus
// pseudo-instructions (their hook may reconfigure protection or memory).
constexpr bool FusableInterior(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSra:
    case Opcode::kMul:
    case Opcode::kSltu:
    case Opcode::kSlt:
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri:
    case Opcode::kSrai:
    case Opcode::kMovi:
    case Opcode::kLui:
    case Opcode::kLdw:
    case Opcode::kLdb:
    case Opcode::kStw:
    case Opcode::kStb:
    case Opcode::kCli:
    case Opcode::kSti:
      return true;
    default:
      return false;
  }
}

// Opcodes that may terminate a fused group: they end the straight-line run
// (control transfer or halt), so nothing is prefetched past them.
inline bool FusableTail(Opcode op) {
  return IsBranch(op) || IsJump(op) || op == Opcode::kHalt;
}

// Exception-storm watchdog of a run budgeted `budget` instructions (or
// cycles): exception entries retire nothing (and zero-cost ones do not
// advance the clock), so both run loops halt after budget * 8 + 1024
// steps. Saturated: a budget of 2^61 or more must not wrap to a small bound.
constexpr uint64_t RunWatchdogLimit(uint64_t budget) {
  constexpr uint64_t kSlack = 1024;
  return budget > (UINT64_MAX - kSlack) / 8 ? UINT64_MAX : budget * 8 + kSlack;
}

}  // namespace

// Per-opcode semantics, expanded into the switch in Execute(). The expansion
// context provides: `insn` (the decoded instruction), `out` (the ExecOutcome
// being built, pre-initialized to {cycles = c.alu}), `c` (the cycle model),
// and the `rs1()`/`rs2()` register readers.
#define TL_BRANCH_BODY(cond)                      \
  const uint32_t a = regs_[insn.rd];              \
  const uint32_t b = regs_[insn.rs1];             \
  if (cond) {                                     \
    ip_ += static_cast<uint32_t>(insn.imm);       \
    out.control_transfer = true;                  \
    out.cycles = c.control_taken;                 \
  } else {                                        \
    out.cycles = c.control_not_taken;             \
  }

#define TL_LOAD_BODY(W)                                                       \
  const uint32_t addr = rs1() + static_cast<uint32_t>(insn.imm);              \
  const bool user = (flags_ & kFlagUser) != 0;                                \
  if (((W) == 1 || (addr & 3) == 0) &&                                        \
      FindDataWindow(read_windows_, addr, (W), ip_, user)) {                  \
    const DataWindow& dw = read_windows_.ways[0];                             \
    ++stats_.data_window_hits;                                                \
    regs_[insn.rd] = (W) == 4 ? LoadWordLe(dw.ro + (addr - dw.lo))            \
                              : dw.ro[addr - dw.lo];                          \
    out.cycles = c.memory + dw.wait_states;                                   \
  } else {                                                                    \
    uint32_t value = 0;                                                       \
    uint32_t wait = 0;                                                        \
    const AccessResult r =                                                    \
        bus_->Read(DataContext(AccessKind::kRead), addr, (W), &value, &wait); \
    if (r != AccessResult::kOk) {                                             \
      out.fault_class = ExcClassOf(r);                                        \
      out.fault_addr = addr;                                                  \
    } else {                                                                  \
      regs_[insn.rd] = value;                                                 \
      out.cycles = c.memory + wait;                                           \
      if (data_window_enabled_) {                                             \
        TryBuildDataWindow(/*is_write=*/false, addr, ip_, user);              \
      }                                                                       \
    }                                                                         \
  }

#define TL_STORE_BODY(W)                                                      \
  const uint32_t addr = rs1() + static_cast<uint32_t>(insn.imm);              \
  const bool user = (flags_ & kFlagUser) != 0;                                \
  if (((W) == 1 || (addr & 3) == 0) &&                                        \
      FindDataWindow(write_windows_, addr, (W), ip_, user)) {                 \
    const DataWindow& dw = write_windows_.ways[0];                            \
    ++stats_.data_window_hits;                                                \
    uint8_t* p = dw.rw + (addr - dw.lo);                                      \
    if ((W) == 4) {                                                           \
      StoreWordLe(p, regs_[insn.rd]);                                         \
    } else {                                                                  \
      p[0] = static_cast<uint8_t>(regs_[insn.rd]);                            \
    }                                                                         \
    /* The store bypassed Bus::Write: bump the memory generation so fused  */ \
    /* groups revalidate, exactly as a bus store would.                    */ \
    bus_->NoteHostMutation();                                                 \
    out.cycles = c.memory + dw.wait_states;                                   \
  } else {                                                                    \
    uint32_t wait = 0;                                                        \
    const AccessResult r = bus_->Write(DataContext(AccessKind::kWrite),       \
                                       addr, (W), regs_[insn.rd], &wait);     \
    if (r != AccessResult::kOk) {                                             \
      out.fault_class = ExcClassOf(r);                                        \
      out.fault_addr = addr;                                                  \
    } else {                                                                  \
      out.cycles = c.memory + wait;                                           \
      if (data_window_enabled_) {                                             \
        TryBuildDataWindow(/*is_write=*/true, addr, ip_, user);               \
      }                                                                       \
    }                                                                         \
  }

#define TL_SANCUS_BODY                             \
  if (!(sancus_hook_ && sancus_hook_(insn, this))) { \
    out.fault_class = kExcIllegal;                 \
    out.fault_addr = ip_;                          \
  }

#define TL_SEMANTICS(X)                                                       \
  X(kNop, ;)                                                                  \
  X(kHalt, out.halted = true;)                                                \
  X(kAdd, regs_[insn.rd] = rs1() + rs2();)                                    \
  X(kSub, regs_[insn.rd] = rs1() - rs2();)                                    \
  X(kAnd, regs_[insn.rd] = rs1() & rs2();)                                    \
  X(kOr, regs_[insn.rd] = rs1() | rs2();)                                     \
  X(kXor, regs_[insn.rd] = rs1() ^ rs2();)                                    \
  X(kShl, regs_[insn.rd] = rs1() << (rs2() & 31);)                            \
  X(kShr, regs_[insn.rd] = rs1() >> (rs2() & 31);)                            \
  X(kSra, regs_[insn.rd] = static_cast<uint32_t>(static_cast<int32_t>(rs1()) >> \
                                                 (rs2() & 31));)              \
  X(kMul, regs_[insn.rd] = rs1() * rs2(); out.cycles = c.mul;)                \
  X(kSltu, regs_[insn.rd] = rs1() < rs2() ? 1 : 0;)                           \
  X(kSlt, regs_[insn.rd] = static_cast<int32_t>(rs1()) <                      \
                                   static_cast<int32_t>(rs2())                \
                               ? 1                                            \
                               : 0;)                                          \
  X(kAddi, regs_[insn.rd] = rs1() + static_cast<uint32_t>(insn.imm);)         \
  X(kAndi, regs_[insn.rd] = rs1() & static_cast<uint32_t>(insn.imm);)         \
  X(kOri, regs_[insn.rd] = rs1() | static_cast<uint32_t>(insn.imm);)          \
  X(kXori, regs_[insn.rd] = rs1() ^ static_cast<uint32_t>(insn.imm);)         \
  X(kShli, regs_[insn.rd] = rs1() << (insn.imm & 31);)                        \
  X(kShri, regs_[insn.rd] = rs1() >> (insn.imm & 31);)                        \
  X(kSrai, regs_[insn.rd] = static_cast<uint32_t>(static_cast<int32_t>(rs1()) >> \
                                                  (insn.imm & 31));)          \
  X(kMovi, regs_[insn.rd] = static_cast<uint32_t>(insn.imm);)                 \
  X(kLui, regs_[insn.rd] = static_cast<uint32_t>(insn.imm) << 10;)            \
  X(kLdw, TL_LOAD_BODY(4))                                                    \
  X(kLdb, TL_LOAD_BODY(1))                                                    \
  X(kStw, TL_STORE_BODY(4))                                                   \
  X(kStb, TL_STORE_BODY(1))                                                   \
  X(kBeq, TL_BRANCH_BODY(a == b))                                             \
  X(kBne, TL_BRANCH_BODY(a != b))                                             \
  X(kBlt, TL_BRANCH_BODY(static_cast<int32_t>(a) < static_cast<int32_t>(b)))  \
  X(kBge, TL_BRANCH_BODY(static_cast<int32_t>(a) >= static_cast<int32_t>(b))) \
  X(kBltu, TL_BRANCH_BODY(a < b))                                             \
  X(kBgeu, TL_BRANCH_BODY(a >= b))                                            \
  X(kJmp, ip_ += static_cast<uint32_t>(insn.imm); out.control_transfer = true; \
    out.cycles = c.control_taken;)                                            \
  X(kJal, regs_[kRegLr] = ip_ + 4; ip_ += static_cast<uint32_t>(insn.imm);    \
    out.control_transfer = true; out.cycles = c.control_taken;)               \
  X(kJr, ip_ = rs1(); out.control_transfer = true;                            \
    out.cycles = c.control_taken;)                                            \
  X(kJalr, const uint32_t target = rs1(); regs_[kRegLr] = ip_ + 4;            \
    ip_ = target; out.control_transfer = true; out.cycles = c.control_taken;) \
  X(kSwi,                                                                     \
    out.fault_class = kExcSwiBase + (static_cast<uint32_t>(insn.imm) & 7);)   \
  X(kIret,                                                                    \
    uint32_t new_ip = 0;                                                      \
    uint32_t new_flags = 0;                                                   \
    const uint32_t sp = regs_[kRegSp];                                        \
    const AccessResult r = PopIretFrame(sp, &new_ip, &new_flags);             \
    if (r != AccessResult::kOk) {                                             \
      out.fault_class = ExcClassOf(r);                                        \
      out.fault_addr = sp;                                                    \
    } else {                                                                  \
      regs_[kRegSp] = sp + 8;                                                 \
      ip_ = new_ip;                                                           \
      flags_ = new_flags;                                                     \
      out.control_transfer = true;                                            \
      out.cycles = c.iret;                                                    \
    })                                                                        \
  X(kCli, flags_ &= ~kFlagIf;)                                                \
  X(kSti, flags_ |= kFlagIf;)                                                 \
  /* Wait() decides whether a wfi sleeps; its retire is a nop. */             \
  X(kWfi, ;)                                                                  \
  X(kProtect, TL_SANCUS_BODY)                                                 \
  X(kUnprotect, TL_SANCUS_BODY)                                               \
  X(kAttest, TL_SANCUS_BODY)

Cpu::Cpu(Bus* bus, SysCtl* sysctl, const CpuConfig& config)
    : bus_(bus), sysctl_(sysctl), config_(config) {
  assert(bus_ != nullptr);
  assert(sysctl_ != nullptr);
  data_window_enabled_ = config_.fast_path;
}

void Cpu::AddIrqSource(Device* device) {
  assert(device->irq_line() >= 0);
  // Keep the list ordered by IRQ line (priority) with a sorted insert
  // instead of re-sorting the whole vector on every registration.
  irq_sources_.insert(
      std::upper_bound(irq_sources_.begin(), irq_sources_.end(), device,
                       [](const Device* a, const Device* b) {
                         return a->irq_line() < b->irq_line();
                       }),
      device);
}

void Cpu::Reset(uint32_t reset_vector) {
  for (uint32_t& reg : regs_) {
    reg = 0;
  }
  ip_ = reset_vector;
  prev_ip_ = reset_vector;
  flags_ = 0;
  halted_ = false;
  trap_ = TrapInfo{};
  // Architectural per-run state is cleared; without this a post-reset read
  // of last_exception_entry_cycles() would report the entry cost of an
  // exception taken in the *previous* run (stale-counter bug hit by the
  // fault injector's mid-run reset campaigns).
  last_exception_entry_cycles_ = 0;
  // Cycle counter and stats persist across reset so boot-cost benches can
  // measure the re-initialization itself (see CpuStats in cpu.h).
  // The code cache survives too: decodes revalidate against the fetched
  // word, groups against the memory and MPU generations, and the EA-MPU's
  // Reset() bumps its config generation, which alone invalidates every
  // fused group built under the pre-reset protection layout.
}

AccessContext Cpu::DataContext(AccessKind kind) const {
  AccessContext ctx;
  ctx.curr_ip = ip_;
  ctx.kind = kind;
  ctx.privileged = (flags_ & kFlagUser) == 0;
  return ctx;
}

void Cpu::HaltWithTrap(uint32_t exception_class, uint32_t addr,
                       const char* why) {
  halted_ = true;
  trap_.valid = true;
  trap_.exception_class = exception_class;
  trap_.ip = ip_;
  trap_.addr = addr;
  trap_.reason = why;
  if (sink_ != nullptr) {
    HaltEvent event;
    event.cycle = cycles_;
    event.ip = ip_;
    event.trap = true;
    event.trap_class = exception_class;
    sink_->OnHalt(event);
  }
}

bool Cpu::PendingIrq(Device** source) const {
  for (Device* device : irq_sources_) {
    if (device->IrqPending()) {
      *source = device;
      return true;
    }
  }
  return false;
}

Device* Cpu::PollIrq() {
  // IRQ-pending is device state: deferred ticks must land before the poll or
  // a timer expiry inside the deferred span would be missed.
  bus_->FlushTicks();
  ++stats_.irq_polls;
  Device* source = nullptr;
  if (PendingIrq(&source)) {
    irq_horizon_ = 0;
    return source;
  }
  // Nothing is pending, and nothing can be until a source's Tick() reaches
  // its deadline or a bus access reaches a device (device.h).
  const uint64_t wake = CyclesUntilWake();
  irq_horizon_ =
      wake >= kNoIrqDeadline - cycles_ ? kNoIrqDeadline : cycles_ + wake;
  irq_horizon_device_generation_ = bus_->device_generation();
  return nullptr;
}

uint64_t Cpu::CyclesUntilWake() const {
  uint64_t wake = kNoIrqDeadline;
  for (const Device* device : irq_sources_) {
    wake = std::min(wake, device->CyclesUntilIrq());
  }
  return wake;
}

bool Cpu::PushWords(uint32_t* sp, const uint32_t* words, int n,
                    uint32_t subject_ip, bool user) {
  const uint32_t width = 4 * static_cast<uint32_t>(n);
  const uint32_t top = *sp;
  if (const DataWindow* w = CoveringWindow(write_windows_, top - width,
                                           width, subject_ip, user)) {
    *sp = top - width;
    uint8_t* p = w->rw + (top - w->lo);
    for (int i = 0; i < n; ++i) {
      p -= 4;
      StoreWordLe(p, words[i]);
    }
    bus_->NoteHostMutation();
    return true;
  }
  AccessContext ctx;
  ctx.curr_ip = subject_ip;
  ctx.kind = AccessKind::kWrite;
  ctx.privileged = !user;
  for (int i = 0; i < n; ++i) {
    *sp -= 4;
    if (bus_->Write(ctx, *sp, 4, words[i]) != AccessResult::kOk) {
      return false;
    }
  }
  if (data_window_enabled_) {
    TryBuildDataWindow(/*is_write=*/true, *sp, subject_ip, user);
  }
  return true;
}

AccessResult Cpu::PopIretFrame(uint32_t sp, uint32_t* new_ip,
                                uint32_t* new_flags) {
  const bool user = (flags_ & kFlagUser) != 0;
  if (const DataWindow* w = CoveringWindow(read_windows_, sp, 8, ip_, user)) {
    *new_ip = LoadWordLe(w->ro + (sp - w->lo));
    *new_flags = LoadWordLe(w->ro + (sp - w->lo) + 4);
    return AccessResult::kOk;
  }
  const AccessContext ctx = DataContext(AccessKind::kRead);
  AccessResult r = bus_->Read(ctx, sp, 4, new_ip);
  if (r == AccessResult::kOk) {
    r = bus_->Read(ctx, sp + 4, 4, new_flags);
  }
  if (r == AccessResult::kOk && data_window_enabled_) {
    TryBuildDataWindow(/*is_write=*/false, sp, ip_, user);
  }
  return r;
}

bool Cpu::SaveTrustletState(int region_index, uint32_t resume_ip,
                            uint32_t subject_ip) {
  // The frame (layout in cpu.h) is stored as the interrupted trustlet's
  // own stores, so a bogus stack pointer faults exactly like a trustlet
  // store would (paper footnote 1). Its entry cost comes from the cycle
  // model, not from bus wait states, so the window path cannot differ.
  uint32_t frame[kTrustletFrameBytes / 4];
  frame[0] = flags_;
  frame[1] = resume_ip;
  frame[2] = regs_[15];
  frame[3] = regs_[kRegLr];
  for (int i = 0; i <= 12; ++i) {
    frame[16 - i] = regs_[i];
  }
  uint32_t sp = regs_[kRegSp];
  if (!PushWords(&sp, frame, kTrustletFrameBytes / 4, subject_ip,
                 (flags_ & kFlagUser) != 0)) {
    return false;
  }
  // Store the saved SP into the Trustlet Table row via the engine port.
  const MpuRegion& region = mpu_->region(region_index);
  AccessContext engine_ctx;
  engine_ctx.engine = true;
  engine_ctx.kind = AccessKind::kWrite;
  if (bus_->Write(engine_ctx, region.sp_slot, 4, sp) != AccessResult::kOk) {
    return false;
  }
  return true;
}

bool Cpu::EnterException(uint32_t exception_class, uint32_t handler,
                         uint32_t fault_addr, uint32_t resume_ip,
                         uint32_t subject_ip) {
  ++stats_.exceptions;
  uint32_t entry_cycles = config_.cycles.exception_base;

  // Determine whether the secure engine must perform a full state save.
  bool trustlet_path = false;
  int region_index = -1;
  uint32_t trustlet_entry_addr = 0;

  // Every terminal of this function reports the completed (or failed)
  // transition; by-reference capture picks up the final entry_cycles /
  // trustlet_path values.
  const auto emit_trap = [&](uint32_t effective_handler, bool halt) {
    if (sink_ == nullptr) {
      return;
    }
    TrapEvent event;
    event.cycle = cycles_;
    event.exception_class = exception_class;
    event.handler = effective_handler;
    event.fault_addr = fault_addr;
    event.resume_ip = resume_ip;
    event.subject_ip = subject_ip;
    event.entry_cycles = entry_cycles;
    event.trustlet_entry = trustlet_entry_addr;
    event.interrupt =
        exception_class >= kExcIrqBase && exception_class < kExcSwiBase;
    event.trustlet_path = trustlet_path;
    event.halted = halt;
    sink_->OnTrap(event);
  };
  if (config_.secure_exceptions && mpu_ != nullptr && mpu_->enabled()) {
    entry_cycles += config_.cycles.secure_detect;
    const std::optional<int> region = mpu_->FindCodeRegion(subject_ip);
    if (region.has_value()) {
      const MpuRegion& r = mpu_->region(*region);
      if ((r.attr & kMpuAttrOs) == 0 && r.sp_slot != 0) {
        trustlet_path = true;
        region_index = *region;
      }
    }
  }

  if (handler == 0) {
    // Unhandled trap. If a trustlet was interrupted, its GPRs must still be
    // cleared before the CPU parks: the halt is followed by a reset and the
    // Secure Loader, and nothing on that path may observe trustlet state
    // (the register-clear step of Fig. 4 is unconditional).
    if (trustlet_path) {
      for (uint32_t& reg : regs_) {
        reg = 0;
      }
    }
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(0, true);
    HaltWithTrap(exception_class, fault_addr, "unhandled exception");
    return false;
  }

  if (!trustlet_path) {
    // Regular path: [FLAGS][resume IP][error] on the current stack. The ISR
    // saves any registers it clobbers — nothing is cleared.
    AccessContext ctx = DataContext(AccessKind::kWrite);
    ctx.curr_ip = subject_ip;
    uint32_t sp = regs_[kRegSp];
    auto push = [&](uint32_t value) {
      sp -= 4;
      return bus_->Write(ctx, sp, 4, value) == AccessResult::kOk;
    };
    if (!push(flags_) || !push(resume_ip) || !push(exception_class)) {
      cycles_ += entry_cycles;
      last_exception_entry_cycles_ = entry_cycles;
      emit_trap(handler, true);
      HaltWithTrap(exception_class, sp, "double fault (exception frame)");
      return false;
    }
    regs_[kRegSp] = sp;
    flags_ &= ~(kFlagIf | kFlagUser);
    ip_ = handler;
    prev_ip_ = handler;  // Hardware vectoring: the handler fetch is trusted.
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(handler, false);
    return true;
  }

  // Secure path.
  entry_cycles += config_.cycles.secure_state_save;
  entry_cycles += config_.cycles.secure_clear_and_sp;
  ++stats_.trustlet_interrupts;

  const bool saved = SaveTrustletState(region_index, resume_ip, subject_ip);
  const uint32_t trustlet_entry = mpu_->region(region_index).base;
  trustlet_entry_addr = trustlet_entry;
  // Registers are cleared unconditionally: even when the save failed (the
  // trustlet is terminated, footnote 1), nothing may leak into the ISR.
  for (uint32_t& reg : regs_) {
    reg = 0;
  }

  // Locate the OS region and restore its stack pointer from the Trustlet
  // Table (step 3 of Fig. 4).
  uint32_t os_sp = 0;
  bool have_os = false;
  for (int i = 0; i < mpu_->num_regions(); ++i) {
    const MpuRegion& r = mpu_->region(i);
    if (r.enabled() && (r.attr & kMpuAttrOs) != 0 && r.sp_slot != 0) {
      AccessContext engine_ctx;
      engine_ctx.engine = true;
      engine_ctx.kind = AccessKind::kRead;
      if (bus_->Read(engine_ctx, r.sp_slot, 4, &os_sp) == AccessResult::kOk) {
        have_os = true;
      }
      break;
    }
  }
  if (!have_os) {
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(handler, true);
    HaltWithTrap(exception_class, fault_addr, "no OS stack configured");
    return false;
  }

  // A failed save means the trustlet's stack was unusable; the event is
  // reported as a memory protection fault (paper footnote 1) through the
  // MPU-fault handler.
  uint32_t effective_handler = handler;
  if (!saved) {
    effective_handler = sysctl_->HandlerFor(ExceptionClass::kMpuFault);
    if (effective_handler == 0) {
      cycles_ += entry_cycles;
      last_exception_entry_cycles_ = entry_cycles;
      emit_trap(0, true);
      HaltWithTrap(kExcMpuFault, fault_addr,
                   "trustlet terminated, no MPU fault handler");
      return false;
    }
  }

  // Push [faulting IP][error] onto the OS stack. These stores execute with
  // the handler's authority (the engine is completing the switch into the
  // ISR context), privileged whatever FLAGS.User says.
  const uint32_t reported_ip =
      (config_.sanitize_faulting_ip || !saved) ? trustlet_entry : subject_ip;
  const uint32_t error =
      (saved ? exception_class : kExcMpuFault) | kErrorFromTrustlet;
  const uint32_t os_frame[2] = {reported_ip, error};
  uint32_t sp = os_sp;
  if (!PushWords(&sp, os_frame, 2, effective_handler, /*user=*/false)) {
    cycles_ += entry_cycles;
    last_exception_entry_cycles_ = entry_cycles;
    emit_trap(effective_handler, true);
    HaltWithTrap(exception_class, sp, "double fault (OS stack)");
    return false;
  }
  regs_[kRegSp] = sp;
  flags_ &= ~(kFlagIf | kFlagUser);
  ip_ = effective_handler;
  prev_ip_ = effective_handler;
  cycles_ += entry_cycles;
  last_exception_entry_cycles_ = entry_cycles;
  emit_trap(effective_handler, false);
  return true;
}

// Inlined at every call site: in RunLoop the switch sits in the dispatch
// loop itself, with no call per guest instruction.
[[gnu::always_inline]] inline Cpu::ExecOutcome Cpu::Execute(
    const Instruction& insn) {
  ExecOutcome out;
  out.cycles = config_.cycles.alu;
  const auto& c = config_.cycles;

  auto rs1 = [&]() { return regs_[insn.rs1]; };
  auto rs2 = [&]() { return regs_[insn.rs2]; };

  switch (insn.opcode) {
#define TL_CASE(name, ...) \
  case Opcode::name: {     \
    __VA_ARGS__            \
  } break;
    TL_SEMANTICS(TL_CASE)
#undef TL_CASE
  }
  return out;
}

bool Cpu::RecognizeIrq(StepEvent* event, uint64_t cycles_before) {
  Device* source = PollIrq();
  if (source == nullptr) {
    return false;
  }
  if (interrupt_guard_ && !interrupt_guard_(ip_)) {
    // The architecture cannot interrupt protected code: force a reset.
    source->IrqAck();
    HaltWithTrap(kExcReset, ip_, "interrupt in protected module");
    bus_->TickDevices(cycles_ - cycles_before);
    *event = StepEvent::kHalted;
    return true;
  }
  const uint32_t handler = source->IrqHandler();
  source->IrqAck();
  if (handler != 0) {
    ++stats_.interrupts;
    const uint32_t cls =
        kExcIrqBase + static_cast<uint32_t>(source->irq_line());
    EnterException(cls, handler, 0, ip_, ip_);
    bus_->TickDevices(cycles_ - cycles_before);
    *event = halted_ ? StepEvent::kHalted : StepEvent::kInterrupt;
    return true;
  }
  // Spurious interrupt (no handler programmed): acknowledged and dropped;
  // the step proceeds to fetch as if nothing were pending.
  return false;
}

StepEvent Cpu::TakeFetchFault(uint32_t exception_class,
                              uint64_t cycles_before) {
  if (exception_class == kExcReset) {
    HaltWithTrap(kExcReset, ip_, "protection unit reset");
    bus_->TickDevices(cycles_ - cycles_before);
    return StepEvent::kHalted;
  }
  const uint32_t handler = sysctl_->HandlerFor(
      exception_class == kExcMpuFault ? ExceptionClass::kMpuFault
      : exception_class == kExcAlign  ? ExceptionClass::kAlignmentFault
                                      : ExceptionClass::kBusError);
  // A fetch fault: the target never began executing, so the interrupted
  // subject is the instruction that attempted the transfer (prev_ip_).
  EnterException(exception_class, handler, ip_, ip_, prev_ip_);
  bus_->TickDevices(cycles_ - cycles_before);
  return halted_ ? StepEvent::kHalted : StepEvent::kException;
}

StepEvent Cpu::TakeIllegal(uint64_t cycles_before) {
  const uint32_t handler =
      sysctl_->HandlerFor(ExceptionClass::kIllegalInstruction);
  EnterException(kExcIllegal, handler, ip_, ip_, ip_);
  bus_->TickDevices(cycles_ - cycles_before);
  return halted_ ? StepEvent::kHalted : StepEvent::kException;
}

// FinishExecute's rare paths, out of line: fault and SWI entry, and HALT.
[[gnu::noinline]] StepEvent Cpu::RetireRare(const ExecOutcome& out,
                                            uint32_t insn_addr, uint32_t word,
                                            uint64_t cycles_before) {
  if (out.fault_class.has_value()) {
    const uint32_t cls = *out.fault_class;
    uint32_t handler = 0;
    uint32_t resume = ip_;
    if (cls == kExcReset) {
      HaltWithTrap(kExcReset, out.fault_addr, "protection unit reset");
      bus_->TickDevices(cycles_ - cycles_before);
      return StepEvent::kHalted;
    } else if (cls >= kExcSwiBase) {
      handler = sysctl_->HandlerFor(ExceptionClass::kSwiBase, cls - kExcSwiBase);
      resume = ip_ + 4;  // SWIs resume after the trapping instruction.
      ++stats_.instructions;
      if (insn_sink_ != nullptr) {
        // The SWI instruction itself retires; the exception entry that
        // follows is reported separately as a TrapEvent.
        insn_sink_->OnInstruction(
            InsnEvent{cycles_, insn_addr, word, out.cycles});
      }
    } else if (cls == kExcMpuFault) {
      handler = sysctl_->HandlerFor(ExceptionClass::kMpuFault);
    } else if (cls == kExcIllegal) {
      handler = sysctl_->HandlerFor(ExceptionClass::kIllegalInstruction);
    } else if (cls == kExcAlign) {
      handler = sysctl_->HandlerFor(ExceptionClass::kAlignmentFault);
    } else {
      handler = sysctl_->HandlerFor(ExceptionClass::kBusError);
    }
    EnterException(cls, handler, out.fault_addr, resume, insn_addr);
    bus_->TickDevices(cycles_ - cycles_before);
    return halted_ ? StepEvent::kHalted : StepEvent::kException;
  }
  ++stats_.instructions;
  halted_ = true;
  if (sink_ != nullptr) {
    // Clean HALT: reported as a HaltEvent (not an InsnEvent) so
    // instruction-stream consumers see exactly the productive retires.
    sink_->OnHalt(HaltEvent{cycles_, insn_addr, out.cycles, false, 0});
  }
  bus_->TickDevices(cycles_ - cycles_before);
  return StepEvent::kHalted;
}

inline StepEvent Cpu::FinishExecute(const ExecOutcome& out, uint32_t insn_addr,
                                    uint32_t word, uint64_t cycles_before) {
  cycles_ += out.cycles;
  prev_ip_ = insn_addr;
  if (out.fault_class.has_value() || out.halted) [[unlikely]] {
    return RetireRare(out, insn_addr, word, cycles_before);
  }
  ++stats_.instructions;
  if (insn_sink_ != nullptr) [[unlikely]] {
    insn_sink_->OnInstruction(InsnEvent{cycles_, insn_addr, word, out.cycles});
  }
  if (!out.control_transfer) {
    ip_ += 4;
  }
  bus_->TickDevices(cycles_ - cycles_before);
  return StepEvent::kExecuted;
}

StepEvent Cpu::Wait(const Instruction& insn, uint32_t word, uint64_t bound) {
  if (PollIrq() == nullptr) {
    const uint64_t wake = CyclesUntilWake();
    uint64_t span = std::min(wake, bound);
    if (span == kNoIrqDeadline) {
      span = 1;  // Nothing armed, no bound: the caller decides what next.
    }
    cycles_ += span;
    stats_.sleep_cycles += span;
    if (sink_ != nullptr) {
      sink_->OnSleep(SleepEvent{cycles_, ip_, span});
    }
    // One span: Tick(a + b) lands where Tick(a) then Tick(b) does, so a
    // sleep stepped one cycle at a time reaches the same device state.
    bus_->TickDevices(span);
    if (span != wake) {
      return StepEvent::kSleep;
    }
  }
  const uint32_t insn_addr = ip_;
  const uint64_t cycles_before = cycles_;
  return FinishExecute(Execute(insn), insn_addr, word, cycles_before);
}

StepEvent Cpu::Step() {
  const StepEvent event = StepOnce();
  // Single-stepping hands control back to a caller who may inspect devices
  // directly; deferred ticks must not be visible across the boundary.
  bus_->FlushTicks();
  return event;
}

AccessResult Cpu::Fetch(uint32_t* word) {
  AccessContext ctx;
  ctx.curr_ip = prev_ip_;
  ctx.kind = AccessKind::kFetch;
  ctx.privileged = (flags_ & kFlagUser) == 0;
  return bus_->Read(ctx, ip_, 4, word);
}

inline bool Cpu::WordsIntact(const CodeEntry& entry, int from) {
  for (int i = from; i < entry.count; ++i) {
    if (LoadWordLe(entry.ops[i].backing) != entry.ops[i].word) {
      return false;
    }
  }
  return true;
}

inline const Instruction* Cpu::DecodeFetched(CodeEntry& entry,
                                            uint32_t word) {
  FusedOp& head = entry.ops[0];
  if (config_.fast_path && entry.valid && head.addr == ip_ &&
      head.word == word) {
    ++stats_.decode_hits;
    return &head.insn;
  }
  ++stats_.decode_misses;
  const std::optional<Instruction> decoded = Decode(word);
  if (!decoded.has_value()) {
    return nullptr;
  }
  if (entry.count != 0) {
    ++stats_.fusion_invalidations;
    entry.count = 0;
  }
  entry.valid = true;
  head.insn = *decoded;
  head.addr = ip_;
  head.word = word;
  return &head.insn;
}

StepEvent Cpu::StepOnce() {
  if (halted_) {
    return StepEvent::kHalted;
  }
  const uint64_t cycles_before = cycles_;

  // Interrupt recognition happens between instructions.
  if ((flags_ & kFlagIf) != 0) {
    StepEvent event = StepEvent::kExecuted;
    if (RecognizeIrq(&event, cycles_before)) {
      return event;
    }
  }

  // A misaligned IP faults before anything else — in particular before the
  // code-cache lookup, whose index drops the low two bits: without this
  // latch a 4-unaligned IP would alias the entry of a different aligned
  // address. (The bus rejects misaligned word reads too; this makes the
  // ordering explicit and independent of the bus.)
  if ((ip_ & 3u) != 0) {
    return TakeFetchFault(kExcAlign, cycles_before);
  }

  // Fetch. The access subject is the instruction that transferred control
  // here (prev_ip_), not the target itself — this is the execution-aware
  // check that confines cross-region entry to entry vectors.
  uint32_t word = 0;
  const AccessResult fetch = Fetch(&word);
  if (fetch != AccessResult::kOk) {
    return TakeFetchFault(ExcClassOf(fetch), cycles_before);
  }

  const Instruction* insn = DecodeFetched(CodeSlot(ip_), word);
  if (insn == nullptr) {
    return TakeIllegal(cycles_before);
  }
  if (insn->opcode == Opcode::kWfi) {
    return Wait(*insn, word, /*bound=*/1);
  }
  const uint32_t insn_addr = ip_;
  return FinishExecute(Execute(*insn), insn_addr, word, cycles_before);
}

StepEvent Cpu::RunLoop(const RunBound& bound) {
  // The host may have touched devices since the last run.
  irq_horizon_ = 0;
  // Fusion is suppressed while a consumer wants per-fetch MpuCheckEvents
  // (tail fetch checks are precomputed and pinned heads skip theirs, so
  // the per-check event stream would under-report).
  const bool fusion = config_.fusion && !fusion_suppressed_;
  uint64_t safety = 0;
  uint64_t steps = 0;  // Watchdog steps taken by the last iteration.
  StepEvent event = StepEvent::kExecuted;
  for (;;) {
    // The one exit, after every step. A kSleep ends the run: a cycle-bound
    // run has reached its target, and an instruction-bound one has no IRQ
    // source armed, so nothing can wake the core. Sleeping is not an
    // exception storm, so only a wfi's retire counts toward the watchdog.
    if (event == StepEvent::kHalted || event == StepEvent::kSleep) {
      break;
    }
    safety += steps;
    if (safety > bound.watchdog_limit) {
      HaltWithTrap(0, ip_, "run watchdog expired (exception storm?)");
      event = StepEvent::kHalted;
      break;
    }
    if (halted_ || Reached(bound)) {
      break;
    }
    steps = 1;
    const uint64_t cycles_before = cycles_;

    // Interrupt recognition happens between instructions; inside the IRQ
    // horizon no source can be pending, so the poll is skipped.
    if ((flags_ & kFlagIf) != 0 && !IrqHorizonOpen() &&
        RecognizeIrq(&event, cycles_before)) {
      continue;
    }

    // Misaligned IP faults before the (index-truncating) cache lookup.
    if ((ip_ & 3u) != 0) {
      event = TakeFetchFault(kExcAlign, cycles_before);
      continue;
    }

    // Fetch, subject = prev_ip_ (entry-vector rule), exactly as in Step().
    // Only the source of the word differs for a group or tombstone head
    // pinned to this predecessor: its host backing, as that fetch is known
    // to pass.
    CodeEntry& entry = CodeSlot(ip_);
    const bool current =
        fusion && entry.count != 0 && entry.ops[0].addr == ip_ &&
        entry.user_mode == ((flags_ & kFlagUser) != 0) &&
        entry.mpu_generation == CurrentMpuGeneration() &&
        entry.topology_generation == bus_->topology_generation();
    uint32_t word = 0;
    if (current && entry.head_prev_ip == prev_ip_ &&
        entry.ops[0].backing != nullptr) {
      word = LoadWordLe(entry.ops[0].backing);
    } else {
      const AccessResult fetch = Fetch(&word);
      if (fetch != AccessResult::kOk) {
        event = TakeFetchFault(ExcClassOf(fetch), cycles_before);
        continue;
      }
    }

    const Instruction* insn = DecodeFetched(entry, word);
    if (insn == nullptr) {
      event = TakeIllegal(cycles_before);
      continue;
    }

    // Superinstruction fusion: a validated straight-line group from the
    // entry dispatches all its constituents, unless the decode above missed
    // and dropped it.
    int count = 1;  // Constituents to dispatch from entry.ops.
    if (fusion) {
      const uint64_t mem_gen = bus_->memory_generation();
      if (current && entry.count != 0) {
        entry.head_prev_ip = prev_ip_;  // This fetch passed: re-pin.
        if (entry.count >= 2) {
          // Re-compare the tail words on every dispatch (the head's word is
          // the fetch above). Like the head's word compare, this stays exact
          // even for out-of-band host mutations that never bumped the bus
          // memory generation (Ram::LoadBytes program reloads in
          // tests/tools).
          if (WordsIntact(entry, 1)) {
            entry.mem_generation = mem_gen;
            count = entry.count;
          } else {
            ++stats_.fusion_invalidations;
            entry.count = 0;
          }
        }
        // count == 1 is a tombstone: the head is not fusable under the
        // current word/MPU configuration — dispatched alone.
      } else {
        if (entry.count != 0) {
          ++stats_.fusion_invalidations;
        }
        BuildFusionGroup(entry, mem_gen);
        count = entry.count;  // 1 for a tombstone.
      }
    }
    // A wfi never fuses, so its entry is a tombstone, which the step above
    // has just built or re-pinned: its next issue from the same predecessor
    // reads it through its backing. It sleeps to the earliest IRQ deadline,
    // or to the cycle target.
    if (insn->opcode == Opcode::kWfi) {
      event = Wait(*insn, word,
                   bound.cycle_bound ? bound.target_cycle - cycles_
                                     : kNoIrqDeadline);
      continue;
    }

    // The one dispatch site. DecodeFetched has just put the decode of the
    // word fetched at ip_ in ops[0], so a lone decode is a group of one.
    // Each constituent is one watchdog step.
    for (int i = 0; i < count; ++i) {
      if (i > 0) {
        // Between constituents the architecture is at an instruction
        // boundary: honor every event the Step loop would honor there, in
        // the same order, by handing control back to the top of the loop.
        if (halted_ || Reached(bound)) {
          break;
        }
        if ((flags_ & kFlagIf) != 0 && !IrqHorizonOpen() &&
            PollIrq() != nullptr) {
          break;  // The next iteration runs full interrupt recognition.
        }
        if (ip_ != entry.ops[i].addr) {
          break;  // A hook or fault redirected control mid-group.
        }
        if (entry.mpu_generation != CurrentMpuGeneration()) {
          // A constituent reconfigured protection (engine-port store): the
          // precomputed tail fetch permissions are void.
          ++stats_.fusion_invalidations;
          entry.count = 0;
          break;
        }
        const uint64_t mem_gen = bus_->memory_generation();
        if (entry.mem_generation != mem_gen) {
          // A constituent stored to memory: re-compare the remaining words
          // so self-modifying code inside the group is executed from the
          // fresh bytes, never the fused decode.
          if (!WordsIntact(entry, i)) {
            ++stats_.fusion_invalidations;
            entry.count = 0;
            break;
          }
          entry.mem_generation = mem_gen;
        }
        // A validated tail constituent executes from its cached decode —
        // the same reuse the code cache counts as a decode hit for a head.
        ++stats_.decode_hits;
        ++steps;
      }
      const FusedOp& op = entry.ops[i];
      const uint64_t op_start = cycles_;
      event = FinishExecute(Execute(op.insn), op.addr, op.word, op_start);
      if (event != StepEvent::kExecuted) {
        break;
      }
    }
    if (count > 1) {
      ++stats_.fusion_groups;
      // Constituents retired inside the group: all dispatched ones but one
      // whose event ended it.
      stats_.fusion_retired +=
          steps - (event == StepEvent::kExecuted ? 0 : 1);
    }
  }
  bus_->FlushTicks();  // Callers observe device state after a run.
  return event;
}

Cpu::CodeEntry* Cpu::NewCodeEntry() {
  const size_t chunk = code_entries_ / kCodeChunkEntries;
  if (chunk == code_chunks_.size()) {
    code_chunks_.push_back(std::make_unique<CodeEntry[]>(kCodeChunkEntries));
  }
  CodeEntry* entry = &code_chunks_[chunk][code_entries_ % kCodeChunkEntries];
  ++code_entries_;
  *entry = CodeEntry{};  // A rewound pool hands out used entries.
  return entry;
}

void Cpu::BuildFusionGroup(CodeEntry& entry, uint64_t mem_gen) {
  ++stats_.fusion_builds;
  FusedOp& head = entry.ops[0];
  entry.mem_generation = mem_gen;
  entry.mpu_generation = CurrentMpuGeneration();
  entry.topology_generation = bus_->topology_generation();
  entry.head_prev_ip = prev_ip_;
  entry.user_mode = (flags_ & kFlagUser) != 0;
  entry.count = 1;  // Tombstone unless a group forms below.
  // The head's pin and the tail fetch permissions, precomputed with the
  // EA-MPU's advisory query, hold while its config generation does. A
  // foreign protection unit (the SMART/Sancus overlays) has no such query
  // and can change a fetch decision without moving a generation, so under
  // one the tombstone has no backing: every fetch keeps its real Check().
  ProtectionUnit* prot = bus_->protection_unit();
  const bool check_mpu = prot != nullptr;
  if (check_mpu && prot != static_cast<ProtectionUnit*>(mpu_)) {
    head.backing = nullptr;
    return;
  }
  head.backing = bus_->HostMemSpan(head.addr, 4);
  if (!FusableInterior(head.insn.opcode) || head.backing == nullptr) {
    return;
  }
  const bool privileged = (flags_ & kFlagUser) == 0;
  uint32_t prev_addr = head.addr;
  for (int i = 1; i < kMaxFusedOps; ++i) {
    const uint32_t addr = prev_addr + 4;
    if (addr < prev_addr) {  // Wrapped past the top of the address space.
      break;
    }
    const uint8_t* backing = bus_->HostMemSpan(addr, 4);
    if (backing == nullptr) {  // MMIO, unmapped, or straddling a device.
      break;
    }
    // Sequential fetch: the subject of constituent i's fetch is constituent
    // i-1, exactly as prev_ip_ would be in the Step path.
    if (check_mpu && !mpu_->FetchWouldPass(prev_addr, addr, privileged)) {
      break;
    }
    const uint32_t w = LoadWordLe(backing);
    const std::optional<Instruction> decoded = Decode(w);
    if (!decoded.has_value()) {
      break;
    }
    const bool interior = FusableInterior(decoded->opcode);
    const bool tail = FusableTail(decoded->opcode);
    if (!interior && !tail) {
      break;
    }
    FusedOp& op = entry.ops[entry.count];
    op.insn = *decoded;
    op.addr = addr;
    op.word = w;
    op.backing = backing;
    ++entry.count;
    if (tail) {
      break;
    }
    prev_addr = addr;
  }
}

bool Cpu::PromoteDataWindow(DataWindowSet& set, uint32_t addr, uint32_t width,
                            uint32_t subject_ip, bool user) {
  for (int k = 0; k < kDataWindowWays - 1; ++k) {
    const uint8_t slot = set.order[k];
    if (WindowCovers(set.ways[slot], addr, width, subject_ip, user)) {
      // The hit becomes the front; the old front, now second, takes its
      // slot, and the ways that were more recent than the hit move down one.
      std::swap(set.ways[0], set.ways[slot]);
      std::copy_backward(set.order, set.order + k, set.order + k + 1);
      set.order[0] = slot;
      return true;
    }
  }
  return false;
}

void Cpu::TryBuildDataWindow(bool is_write, uint32_t addr,
                             uint32_t subject_ip, bool user) {
  ++stats_.data_window_misses;
  // Windows precompute EA-MPU data decisions; a foreign protection unit
  // (SMART/Sancus overlay) has no advisory query, so every access keeps its
  // real Check() — same rule as the fusion builder.
  ProtectionUnit* prot = bus_->protection_unit();
  if (prot != nullptr && prot != static_cast<ProtectionUnit*>(mpu_)) {
    return;
  }
  Bus::MemWindow mem;
  if (!bus_->MemWindowFor(addr, &mem)) {
    return;  // MMIO or unmapped: never windowed.
  }
  uint32_t lo = mem.lo;
  uint64_t hi = uint64_t{mem.lo} + mem.len;
  uint32_t subj_lo = 0;
  uint64_t subj_hi = uint64_t{1} << 32;
  if (prot != nullptr) {
    uint32_t mpu_lo = 0;
    uint64_t mpu_hi = 0;
    if (!mpu_->DataWindowFor(subject_ip, !user, is_write, addr, &mpu_lo,
                             &mpu_hi, &subj_lo, &subj_hi)) {
      return;  // Denied or too tangled: the full path decides every access.
    }
    lo = std::max(lo, mpu_lo);
    hi = std::min(hi, mpu_hi);
  }
  if (addr < lo || addr >= hi) {
    return;
  }
  uint8_t* rw = nullptr;
  if (is_write) {
    // Asking for exactly [lo, hi) marks those pages in the memory's write
    // map (DESIGN.md §15), so stores through the window need no
    // bookkeeping of their own.
    rw = mem.device->HostMutableSpan(lo - mem.lo,
                                     static_cast<uint32_t>(hi - lo));
    if (rw == nullptr) {
      return;  // Guest-read-only memory (PROM): stores must keep faulting.
    }
  }
  // The old front becomes second, in the least recently used way's slot.
  DataWindowSet& set = is_write ? write_windows_ : read_windows_;
  const uint8_t lru = set.order[kDataWindowWays - 2];
  set.ways[lru] = set.ways[0];
  std::copy_backward(set.order, set.order + kDataWindowWays - 2,
                     set.order + kDataWindowWays - 1);
  set.order[0] = lru;
  DataWindow& dw = set.ways[0];
  dw.lo = lo;
  dw.len = static_cast<uint32_t>(hi - lo);  // <= device size, fits.
  dw.subj_lo = subj_lo;
  dw.subj_hi = subj_hi;
  dw.ro = mem.ro + (lo - mem.lo);
  dw.rw = rw;
  dw.wait_states = mem.wait_states;
  dw.mpu_generation = CurrentMpuGeneration();
  dw.topology_generation = bus_->topology_generation();
  dw.user_mode = user;
}

StepEvent Cpu::StepLoop(const RunBound& bound) {
  uint64_t safety = 0;
  StepEvent event = StepEvent::kExecuted;
  while (!halted_ && !Reached(bound)) {
    event = Step();
    if (event == StepEvent::kHalted) {
      break;
    }
    if (event == StepEvent::kSleep) {
      // Sleeping is not an exception storm. Step() sleeps one cycle at a
      // time; like RunLoop, an instruction-bound run stops when no IRQ
      // source can ever wake the core.
      if (!bound.cycle_bound && CyclesUntilWake() == kNoIrqDeadline) {
        break;
      }
      continue;
    }
    if (++safety > bound.watchdog_limit) {
      HaltWithTrap(0, ip_, "run watchdog expired (exception storm?)");
      event = StepEvent::kHalted;
      break;
    }
  }
  return event;
}

StepEvent Cpu::Run(uint64_t max_instructions) {
  const RunBound bound{false, 0, max_instructions, stats_.instructions,
                       RunWatchdogLimit(max_instructions)};
  return config_.fast_path ? RunLoop(bound) : StepLoop(bound);
}

StepEvent Cpu::RunUntilCycle(uint64_t target_cycle) {
  const RunBound bound{
      true, target_cycle, 0, stats_.instructions,
      RunWatchdogLimit(target_cycle > cycles_ ? target_cycle - cycles_ : 0)};
  return config_.fast_path ? RunLoop(bound) : StepLoop(bound);
}

Cpu::ArchState Cpu::SaveArchState() const {
  ArchState state;
  for (int i = 0; i < kNumRegisters; ++i) {
    state.regs[i] = regs_[i];
  }
  state.ip = ip_;
  state.prev_ip = prev_ip_;
  state.flags = flags_;
  state.halted = halted_;
  state.cycles = cycles_;
  state.last_exception_entry_cycles = last_exception_entry_cycles_;
  state.trap = trap_;
  state.instructions = stats_.instructions;
  state.exceptions = stats_.exceptions;
  state.interrupts = stats_.interrupts;
  state.trustlet_interrupts = stats_.trustlet_interrupts;
  return state;
}

void Cpu::RestoreArchState(const ArchState& state) {
  for (int i = 0; i < kNumRegisters; ++i) {
    regs_[i] = state.regs[i];
  }
  ip_ = state.ip;
  prev_ip_ = state.prev_ip;
  flags_ = state.flags;
  halted_ = state.halted;
  cycles_ = state.cycles;
  last_exception_entry_cycles_ = state.last_exception_entry_cycles;
  trap_ = state.trap;
  stats_.instructions = state.instructions;
  stats_.exceptions = state.exceptions;
  stats_.interrupts = state.interrupts;
  stats_.trustlet_interrupts = state.trustlet_interrupts;
  // Memory was (or may have been) rewritten out-of-band around this call;
  // drop every decode and group rather than rely on revalidation (a group's
  // mid-group re-compare only runs when the memory generation moved, and
  // out-of-band rewrites may not have bumped it). Every set starts empty
  // again, and the pool hands its entries out anew.
  std::fill(std::begin(code_index_), std::end(code_index_), nullptr);
  code_entries_ = 0;
  // Data windows map addresses, not contents, so a rewrite alone cannot
  // stale them — but a restore may also land in a different subject/mode
  // context; dropping them is free and removes the reasoning burden.
  ClearDataWindows();
}

}  // namespace trustlite
