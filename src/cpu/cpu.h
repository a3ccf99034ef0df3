// Copyright 2026 The TrustLite Reproduction Authors.
//
// TL32 CPU core: interpreter, interrupt handling, and the two exception
// engines.
//
// The *regular* engine models a conventional low-cost core: on an exception
// it pushes FLAGS, the resume IP and an error code onto the current stack
// and jumps to the handler; the ISR is responsible for saving any registers
// it uses — which is precisely the information-leak the paper attacks
// (Sec. 3.4.1: registers of an interrupted task are exposed to the ISR/OS).
//
// The *secure* engine (TrustLite's modified exception engine, Fig. 4) adds,
// when the interrupted instruction lies inside an EA-MPU code region that is
// not the OS region:
//   (1) the full CPU state (FLAGS, IP, r0-r12, lr) is pushed onto the
//       *interrupted trustlet's* stack, attributed to the trustlet subject —
//       so a corrupted stack pointer simply faults, terminating the trustlet
//       (paper footnote 1);
//   (2) the resulting stack pointer is stored into the trustlet's Trustlet
//       Table row through a dedicated engine port (the per-region SP_SLOT
//       register of the EA-MPU);
//   (3) all general-purpose registers are cleared;
//   (4) the OS stack pointer is loaded from the OS region's SP_SLOT and the
//       (optionally sanitized) faulting IP plus an error code are pushed
//       onto the OS stack; the ISR starts with a clean register file.
//
// Stack frame written by the secure engine on the trustlet stack (offsets
// from the final saved SP):
//   +0 .. +48   r0 .. r12
//   +52         lr (r14)
//   +56         r15
//   +60         resume IP
//   +64         FLAGS
// A trustlet's continue() entry restores r0..r12/lr/r15 from this frame,
// adds 60 to SP and executes IRET (pops IP then FLAGS).
//
// Frame on the OS/current stack:
//   regular path: [FLAGS][resume IP][error]   (error on top; ISR pops error
//                                              and IRETs)
//   trustlet path: [faulting IP][error]       (ISR must not IRET; it defers
//                                              to the scheduler / continue())
// Error code: low 8 bits = exception class / vector; bit 31 set when a
// trustlet was interrupted (the ISR could equally look the faulting IP up in
// the Trustlet Table, Sec. 3.4.2 — the bit is a convenience).

#ifndef TRUSTLITE_SRC_CPU_CPU_H_
#define TRUSTLITE_SRC_CPU_CPU_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/cpu/cycle_model.h"
#include "src/dev/sysctl.h"
#include "src/isa/isa.h"
#include "src/mem/bus.h"
#include "src/mpu/ea_mpu.h"
#include "src/platform/observe/events.h"

namespace trustlite {

// FLAGS register bits.
inline constexpr uint32_t kFlagIf = 1u << 0;    // Interrupts enabled.
inline constexpr uint32_t kFlagUser = 1u << 1;  // User mode (compat MPU).

// Size of the secure engine's frame on the trustlet stack (layout above).
inline constexpr uint32_t kTrustletFrameBytes = 68;

// Error-code fields pushed by the exception engine.
inline constexpr uint32_t kErrorFromTrustlet = 1u << 31;
inline constexpr uint32_t kErrorClassMask = 0xFF;

// Exception classes as they appear in error codes.
inline constexpr uint32_t kExcMpuFault = 0;
inline constexpr uint32_t kExcIllegal = 1;
inline constexpr uint32_t kExcBusError = 2;
inline constexpr uint32_t kExcAlign = 3;
// A protection unit demanded a platform reset (SMART/Sancus semantics).
// Never dispatched to software: the CPU halts with this trap class and the
// platform model performs the reset + memory sanitization.
inline constexpr uint32_t kExcReset = 4;
inline constexpr uint32_t kExcIrqBase = 8;   // + IRQ line
inline constexpr uint32_t kExcSwiBase = 16;  // + SWI vector

enum class StepEvent : uint8_t {
  kExecuted,    // One instruction retired.
  kException,   // Exception entry performed (fault or SWI).
  kInterrupt,   // Hardware IRQ entry performed.
  kHalted,      // CPU is halted (HALT executed or unrecoverable trap).
  kSleep,       // Slept in `wfi` without reaching an IRQ deadline; IP stays
                // on the wfi, which issues again on the next step.
};

// Details of the trap that halted the CPU (unhandled exception / double
// fault); for post-mortem inspection by tests and examples.
struct TrapInfo {
  bool valid = false;
  uint32_t exception_class = 0;
  uint32_t ip = 0;
  uint32_t addr = 0;
  const char* reason = "";
};

struct CpuConfig {
  // Enables the TrustLite secure exception engine. Requires an EA-MPU to be
  // attached; without one every exception takes the regular path.
  bool secure_exceptions = false;
  // Report the interrupted trustlet's entry address instead of the precise
  // faulting IP to the ISR (Sec. 3.4.2: "the reported faulting IP of
  // trustlets can be sanitized to always point to the trustlet's entry
  // vector").
  bool sanitize_faulting_ip = false;
  // Host-side switch for the fast paths (differential harness): decodes
  // come from the code cache, and Run()/RunUntilCycle() execute through
  // Cpu::RunLoop (superinstruction fusion, data-access windows) instead of
  // the Step()-driven reference loop. Step() never fuses, so the harness's
  // lockstep reference is untouched. Guest-visible behavior must be
  // identical either way.
  bool fast_path = true;
  // Host-side switch for superinstruction fusion over the code cache
  // (pairs-and-quads of straight-line instructions retired from one fused
  // entry). Only effective inside RunLoop.
  bool fusion = true;
  CycleModel cycles;
};

// Host-side execution counters. Semantics across Cpu::Reset / Platform::
// HardReset: *cumulative* — a reset clears architectural state (registers,
// IP, FLAGS, halt latch, trap record, last_exception_entry_cycles) but
// neither the cycle counter nor these stats, so boot-cost benches and
// mid-run reset campaigns (fault injector) keep a monotonic view. Consumers
// that want per-window numbers snapshot and subtract.
struct CpuStats {
  uint64_t instructions = 0;
  uint64_t exceptions = 0;
  uint64_t interrupts = 0;
  uint64_t trustlet_interrupts = 0;  // Secure-engine full-save entries.
  // Code-cache decode counters (host-side simulation detail): fetched
  // words whose decode was reused vs decoded afresh.
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  // Superinstruction fusion counters (host-side simulation detail, like the
  // decode counters: not architectural, not compared by the differential
  // harness, not part of ArchState).
  uint64_t fusion_groups = 0;         // Fused groups dispatched.
  uint64_t fusion_retired = 0;        // Instructions retired inside groups.
  uint64_t fusion_builds = 0;         // Build attempts (incl. tombstones).
  // Groups and tombstones dropped: by revalidation, or by a decode miss
  // that replaced their head.
  uint64_t fusion_invalidations = 0;
  // Data-access window counters (host-side simulation detail): loads/stores
  // served from a resolved window vs through the full bus path.
  uint64_t data_window_hits = 0;
  uint64_t data_window_misses = 0;
  // Cycles spent asleep in `wfi` (Cpu::Wait). Deterministic, but kept with
  // the host telemetry rather than ArchState: a sleeping core is fully
  // described by its IP on the wfi, so snapshots need no sleep field.
  uint64_t sleep_cycles = 0;
  // Flush-and-polls of the IRQ sources: one per IF-set boundary in Step(),
  // one per `wfi` reached, and in the fast run loop one per boundary past the
  // IRQ horizon (DESIGN.md §15, "Polling at deadlines").
  uint64_t irq_polls = 0;
};

class Cpu {
 public:
  Cpu(Bus* bus, SysCtl* sysctl, const CpuConfig& config);

  // Wires the EA-MPU used by the secure exception engine (may be null).
  void AttachMpu(EaMpu* mpu) { mpu_ = mpu; }

  // Registers an IRQ source (typically every bus device with irq_line >= 0).
  void AddIrqSource(Device* device);

  // Handler invoked for Sancus pseudo-instructions (protect/unprotect/
  // attest); returns true if handled, false -> illegal instruction.
  using SancusHook = std::function<bool(const Instruction&, Cpu*)>;
  void SetSancusHook(SancusHook hook) { sancus_hook_ = std::move(hook); }

  // Optional interrupt admission hook: returning false for the interrupted
  // IP models architectures that cannot take interrupts in protected code
  // (Sancus resets the platform instead, paper Sec. 1/7).
  using InterruptGuard = std::function<bool(uint32_t ip)>;
  void SetInterruptGuard(InterruptGuard guard) {
    interrupt_guard_ = std::move(guard);
  }

  // Charges extra cycles (used by instruction hooks modelling hardware
  // engines, e.g. the Sancus MAC unit).
  void AddCycles(uint64_t cycles) { cycles_ += cycles; }

  // Structured-event sink for the observability layer (normally the
  // Platform's EventHub; null = tracing off). `want_insn` gates the
  // per-retire InsnEvent separately so rare-event consumers keep the retire
  // loop untouched; it is sampled here, not per instruction.
  void SetEventSink(EventSink* sink, bool want_insn) {
    sink_ = sink;
    insn_sink_ = want_insn ? sink : nullptr;
  }

  // Disables superinstruction fusion and the data-access windows while a
  // consumer wants per-access MpuCheckEvents: both precompute protection
  // decisions (fused tail fetches at build time, window loads/stores at
  // window-build time), so the per-check event stream would under-report.
  // Wired by Platform::RewireEventSinks.
  void SetFusionSuppressed(bool suppressed) {
    fusion_suppressed_ = suppressed;
    data_window_enabled_ = config_.fast_path && !suppressed;
    if (suppressed) {
      ClearDataWindows();
    }
  }

  // Power-on / platform reset: registers cleared, IP at the PROM reset
  // vector, interrupts disabled. Memory is untouched.
  void Reset(uint32_t reset_vector);

  // Executes one instruction or exception transition, or sleeps one cycle
  // in a `wfi` (kSleep).
  StepEvent Step();

  // Runs until HALT, trap, or `max_instructions` retired. Returns the final
  // event. A `wfi` sleeps to the earliest IRQ deadline; when no IRQ source
  // is armed nothing can ever wake the core, so the run returns kSleep
  // after one cycle with the core still asleep. An exception storm that
  // retires nothing halts with a watchdog trap after about 8 steps per
  // budgeted instruction (saturating: UINT64_MAX means unbounded).
  StepEvent Run(uint64_t max_instructions);

  // Runs until the cycle counter reaches `target_cycle` (or HALT/trap).
  // The last instruction may overshoot the target by its own cost; the
  // fleet executor's quantum barrier relies only on "no instruction
  // *starts* at or after the target". A `wfi` sleep stops exactly on the
  // target. Returns immediately when already halted or past the target.
  StepEvent RunUntilCycle(uint64_t target_cycle);

  // --- State access ---
  uint32_t reg(int index) const { return regs_[index]; }
  void set_reg(int index, uint32_t value) { regs_[index] = value; }
  uint32_t ip() const { return ip_; }
  void set_ip(uint32_t value) { ip_ = value; }
  uint32_t flags() const { return flags_; }
  void set_flags(uint32_t value) { flags_ = value; }
  bool halted() const { return halted_; }
  uint64_t cycles() const { return cycles_; }
  const CpuStats& stats() const { return stats_; }
  const TrapInfo& trap() const { return trap_; }
  const CpuConfig& config() const { return config_; }
  Bus* bus() const { return bus_; }

  // Last exception-entry cost in cycles (from recognition to the first ISR
  // instruction) — the quantity measured in Sec. 5.4.
  uint32_t last_exception_entry_cycles() const {
    return last_exception_entry_cycles_;
  }

  // --- Snapshot support (DESIGN.md §14) ---
  // Everything guest-visible plus the architectural execution counters.
  // Code-cache counters stay host telemetry (cumulative across restores,
  // like across HardReset); TrapInfo::reason is a static string and travels
  // only within the process — a restore from disk repoints it at a generic
  // placeholder (no comparison or digest consumes it).
  struct ArchState {
    uint32_t regs[kNumRegisters] = {};
    uint32_t ip = 0;
    uint32_t prev_ip = 0;
    uint32_t flags = 0;
    bool halted = false;
    uint64_t cycles = 0;
    uint32_t last_exception_entry_cycles = 0;
    TrapInfo trap;
    uint64_t instructions = 0;
    uint64_t exceptions = 0;
    uint64_t interrupts = 0;
    uint64_t trustlet_interrupts = 0;
  };
  ArchState SaveArchState() const;
  // Installs `state` and invalidates the code cache (the snapshot restore
  // path rewrites memory behind the bus).
  void RestoreArchState(const ArchState& state);

 private:
  struct ExecOutcome {
    bool control_transfer = false;
    bool halted = false;
    uint32_t cycles = 0;
    // Fault raised by the instruction (memory/illegal); nullopt otherwise.
    std::optional<uint32_t> fault_class;
    uint32_t fault_addr = 0;
  };

  AccessContext DataContext(AccessKind kind) const;

  ExecOutcome Execute(const Instruction& insn);

  // The bound of one Run() or RunUntilCycle() call: no instruction starts
  // at or after `target_cycle` when `cycle_bound`, else at most
  // `max_instructions` retire after the `start` count of retired ones. The
  // run halts with a watchdog trap after `watchdog_limit` steps that are
  // not sleeps: an exception storm retires nothing.
  struct RunBound {
    bool cycle_bound = false;
    uint64_t target_cycle = 0;
    uint64_t max_instructions = 0;
    uint64_t start = 0;
    uint64_t watchdog_limit = 0;
  };
  bool Reached(const RunBound& bound) const {
    return bound.cycle_bound
               ? cycles_ >= bound.target_cycle
               : stats_.instructions - bound.start >= bound.max_instructions;
  }

  // --- Shared step machinery (used by Step() and RunLoop()) ---
  // Step() minus the lazy-tick flush: the public wrapper flushes deferred
  // device ticks so external single-steppers always observe eager state.
  StepEvent StepOnce();
  // Fetches the word at ip_, with prev_ip_ as the subject (entry-vector
  // rule) and FLAGS.User as the privilege.
  AccessResult Fetch(uint32_t* word);
  // Interrupt recognition after the kFlagIf gate: returns true when the
  // step was consumed (guard reset or exception entry), with *event set;
  // false for no-pending and for the spurious ack-and-drop case.
  bool RecognizeIrq(StepEvent* event, uint64_t cycles_before);
  // Flushes deferred ticks and polls the IRQ sources (one irq_polls);
  // returns the highest-priority pending source, else null. Either way it
  // resets the IRQ horizon: expired when a source is pending, else open
  // until the earliest CyclesUntilWake() deadline or the next non-memory
  // bus access. Step() polls regardless of the horizon.
  Device* PollIrq();
  // True while no IRQ source can be pending (see PollIrq): RunLoop skips
  // its IF-set polls, before a dispatch and between a group's constituents.
  // Every RunLoop call starts with the horizon expired, since the host may
  // touch devices between runs.
  bool IrqHorizonOpen() const {
    return cycles_ < irq_horizon_ &&
           bus_->device_generation() == irq_horizon_device_generation_;
  }
  // Fetch-side fault entry (misaligned IP, fetch MPU/bus fault). The
  // interrupted subject is prev_ip_ (the jumper), per the entry-vector rule.
  StepEvent TakeFetchFault(uint32_t exception_class, uint64_t cycles_before);
  // Undecodable word at ip_ (the subject is the instruction itself).
  StepEvent TakeIllegal(uint64_t cycles_before);
  // Everything after Execute(): cycle/prev_ip bookkeeping, retire
  // accounting, events, IP advance, device ticks. Inline; a fault, SWI or
  // HALT goes on to RetireRare, out of line.
  StepEvent FinishExecute(const ExecOutcome& out, uint32_t insn_addr,
                          uint32_t word, uint64_t cycles_before);
  StepEvent RetireRare(const ExecOutcome& out, uint32_t insn_addr,
                       uint32_t word, uint64_t cycles_before);
  // Issues the `wfi` at ip_ (DESIGN.md §15, "Sleeping instead of
  // yielding"). With an IRQ source pending (IF is not consulted) it retires
  // like nop. Otherwise the core sleeps min(CyclesUntilWake(), bound)
  // cycles as one tick span, fetching and retiring nothing, and the wfi
  // retires in the same step only if the sleep reached the wake deadline;
  // else kSleep. `bound` is the caller's cycle budget (kNoIrqDeadline for
  // none); with neither a deadline nor a bound the core sleeps one cycle.
  StepEvent Wait(const Instruction& insn, uint32_t word, uint64_t bound);
  // Earliest Device::CyclesUntilIrq() over the IRQ sources (flushed device
  // state), kNoIrqDeadline when none is armed.
  uint64_t CyclesUntilWake() const;

  // The two loops behind Run()/RunUntilCycle(), both ending with deferred
  // ticks flushed: with config_.fast_path RunLoop, the fast interpreter
  // loop (code cache, superinstruction fusion, data-access windows), else
  // StepLoop, the reference, which calls Step(). RunLoop has one dispatch
  // site: it executes a lone decode as a group of one, ops[0] of its code
  // entry, and a group's constituents in order, with Execute() inlined.
  // Guest-visible behavior is identical; verified by the differential
  // harness.
  StepEvent RunLoop(const RunBound& bound);
  StepEvent StepLoop(const RunBound& bound);

  uint64_t CurrentMpuGeneration() const {
    return mpu_ != nullptr ? mpu_->config_generation() : 0;
  }

  // Takes an exception or interrupt. `resume_ip` is where execution should
  // continue (the faulting instruction for faults, the next instruction for
  // IRQs/SWIs); `subject_ip` identifies the interrupted code (for fetch
  // faults this is the jumper, not the never-executed target). Returns
  // false if the CPU halted (unhandled trap).
  bool EnterException(uint32_t exception_class, uint32_t handler,
                      uint32_t fault_addr, uint32_t resume_ip,
                      uint32_t subject_ip);

  // Secure-engine helper: full state save to the trustlet stack. Returns
  // false if a save access faulted (trustlet is terminated per footnote 1).
  // When one write window of the interrupted subject covers the whole
  // 68-byte frame, the frame is stored straight to host memory: the window
  // already proves every one of the 17 per-word Checks would pass. Any
  // other frame takes the per-word bus path, which is also the reference
  // when data windows are off.
  bool SaveTrustletState(int region_index, uint32_t resume_ip,
                         uint32_t subject_ip);

  void HaltWithTrap(uint32_t exception_class, uint32_t addr, const char* why);

  bool PendingIrq(Device** source) const;

  // The code cache (DESIGN.md §15), direct-mapped. An entry holds the
  // decode of the word last fetched at ops[0].addr and, on top of it, what
  // the run loop built there: count == 0 is a decode alone, count == 1 a
  // tombstone (the head is not fusable; don't retry until its word or the
  // MPU configuration changes), 2..4 a superinstruction group of
  // consecutive straight-line instructions headed by ops[0]. Every fetch
  // still goes through the bus (so MPU checks and device semantics are
  // untouched), except a pinned group head, below; the decode is reused
  // only when the fetched word equals ops[0].word, which makes it exact even
  // for self-modifying code. A word that differs is decoded afresh into
  // ops[0] and drops the group; a group dropped by revalidation keeps the
  // decode.
  //
  // Only the head of a group pays the real bus fetch (and its MPU fetch
  // check) — the tail constituents' fetch permissions are precomputed with
  // the EA-MPU's advisory query and pinned to mpu_generation, and their
  // instruction words are re-compared through stable host backing pointers
  // on every dispatch and whenever the bus memory generation moves
  // mid-group (self-modifying code, loaders, snapshot restore).
  //
  // The head is pinned to one predecessor: head_prev_ip is the prev_ip_
  // whose real fetch of the head last passed. That decision depends only on
  // (predecessor, head address, FLAGS.User, EA-MPU configuration), which
  // the entry's generations and user_mode already pin, so re-entering the
  // group from the same predecessor reads the head word through
  // ops[0].backing instead of the bus. Any other predecessor (a foreign
  // jump, an exception vector, a fall-through from elsewhere) takes the
  // real fetch and its entry-vector check.
  static constexpr int kMaxFusedOps = 4;
  struct FusedOp {
    Instruction insn;
    uint32_t addr = 0;
    uint32_t word = 0;
    const uint8_t* backing = nullptr;  // Host pointer to the word's bytes.
  };
  struct CodeEntry {
    uint64_t mem_generation = 0;  // Bus memory generation at build/revalidate.
    uint64_t mpu_generation = 0;  // EA-MPU config generation at build.
    uint64_t topology_generation = 0;  // Bus topology generation at build.
    uint32_t head_prev_ip = 0;  // Pinned predecessor of the head (above).
    bool valid = false;         // ops[0] holds a decode.
    bool user_mode = false;     // FLAGS.User at build (fetch privilege).
    uint8_t count = 0;          // 0 = decode only, 1 = tombstone, 2..4 = group.
    FusedOp ops[kMaxFusedOps];
  };
  static constexpr uint32_t kCodeCacheSize = 512;  // Power of two.

  // Set index of the code cache. Trustlet code regions start on 4 KiB
  // boundaries (FW at 0x11000, the attestation trustlet at 0x15000, nanOS
  // at 0x20000), so the plain word index (ip >> 2) puts the hot entry code
  // of every region in the same sets and the trustlet-to-OS yield round
  // trip evicts itself on every pass. Adding a per-page offset staggers
  // consecutive pages by 331 sets.
  static uint32_t CodeCacheIndex(uint32_t ip) {
    return ((ip >> 2) + (ip >> 12) * 331) & (kCodeCacheSize - 1);
  }

  // The decode of `word`, just fetched at ip_: from `entry` when it holds
  // that word at ip_ (a decode hit; never with fast_path off), else decoded
  // afresh into ops[0], dropping any group or tombstone (a decode miss).
  // Null, with `entry` untouched, when the word does not decode.
  const Instruction* DecodeFetched(CodeEntry& entry, uint32_t word);
  // True when ops[from..count) of `entry` still hold the words they were
  // decoded from, read through their stable host backing.
  static bool WordsIntact(const CodeEntry& entry, int from);
  // Builds a group (or a tombstone) over the decode in `entry`, whose head
  // prev_ip_ has just fetched. A group's head must be memory-backed, so it
  // can be pinned.
  void BuildFusionGroup(CodeEntry& entry, uint64_t mem_gen);

  // Data-access window (DESIGN.md §15): a resolved guest address range,
  // inside one memory device, over which a load (read window) or store
  // (write window) by the current subject is uniformly allowed — the
  // intersection of the device's span and the EA-MPU's homogeneous-decision
  // interval (EaMpu::DataWindowFor). A covered access bypasses the bus
  // entirely: no protection Check, no routing, no virtual dispatch. Validity
  // is re-established per access: the accessing IP must sit in the subject
  // interval, FLAGS.User, the EA-MPU config generation and the bus topology
  // generation must match the build. Window stores go straight to host
  // memory, so they bump the bus memory generation themselves (fused groups
  // revalidate through it); the memory's write map already marks the write
  // window's pages, from when it was built.
  // len == 0 means invalid.
  //
  // Reads and writes each keep a set of kDataWindowWays windows ordered
  // most-recently-used first: a trustlet's continue() alone reads its code,
  // its Trustlet Table slot and its stack, three disjoint windows. Lookup
  // scans from the front and moves a hit there; a new window is inserted at
  // the front and drops the least-recently-used way. An access that cannot
  // be windowed (MMIO such as a UART poll) leaves the set untouched.
  struct DataWindow {
    uint32_t lo = 0;
    uint32_t len = 0;
    uint32_t subj_lo = 0;
    uint64_t subj_hi = 0;          // Exclusive; 2^32 expressible.
    const uint8_t* ro = nullptr;   // Host pointer at lo.
    uint8_t* rw = nullptr;         // Non-null only for the write window.
    uint32_t wait_states = 0;
    uint64_t mpu_generation = 0;
    uint64_t topology_generation = 0;
    bool user_mode = false;
  };
  static constexpr int kDataWindowWays = 8;
  bool WindowCovers(const DataWindow& w, uint32_t addr, uint32_t width,
                    uint32_t subject_ip) const {
    return width <= w.len && addr - w.lo <= w.len - width &&
           subject_ip >= w.subj_lo && subject_ip < w.subj_hi &&
           w.user_mode == ((flags_ & kFlagUser) != 0) &&
           w.mpu_generation == CurrentMpuGeneration() &&
           w.topology_generation == bus_->topology_generation();
  }
  // True when a way of `set` covers [addr, addr+width) for an access by
  // `subject_ip`; that way is then set[0].
  bool FindDataWindow(DataWindow* set, uint32_t addr, uint32_t width,
                      uint32_t subject_ip) {
    return WindowCovers(set[0], addr, width, subject_ip) ||
           PromoteDataWindow(set, addr, width, subject_ip);
  }
  // FindDataWindow's scan of ways 1.., moving a hit to the front.
  bool PromoteDataWindow(DataWindow* set, uint32_t addr, uint32_t width,
                         uint32_t subject_ip);
  // Inserts the window around `addr` for accesses by `subject_ip` at the
  // front of the read or write set after a successful full-path access
  // (no-op when ineligible: foreign protection unit, non-memory target,
  // denied or tangled coverage). Callers check data_window_enabled_.
  void TryBuildDataWindow(bool is_write, uint32_t addr, uint32_t subject_ip);
  void ClearDataWindows() {
    for (int i = 0; i < kDataWindowWays; ++i) {
      read_windows_[i] = DataWindow{};
      write_windows_[i] = DataWindow{};
    }
  }

  Bus* bus_;
  SysCtl* sysctl_;
  EaMpu* mpu_ = nullptr;
  EventSink* sink_ = nullptr;       // All event classes except InsnEvent.
  EventSink* insn_sink_ = nullptr;  // Per-retire events; null unless wanted.
  CpuConfig config_;
  SancusHook sancus_hook_;
  InterruptGuard interrupt_guard_;
  std::vector<Device*> irq_sources_;

  uint32_t regs_[kNumRegisters] = {};
  uint32_t ip_ = 0;
  // Address of the most recently executed instruction: the *subject* of the
  // next fetch (paper Fig. 2 checks next_IP against rules with curr_IP as
  // the subject — this is what confines foreign execution to entry vectors).
  // Exception entry re-bases it to the handler (hardware vectoring).
  uint32_t prev_ip_ = 0;
  uint32_t flags_ = 0;
  bool halted_ = false;
  uint64_t cycles_ = 0;
  uint32_t last_exception_entry_cycles_ = 0;
  CpuStats stats_;
  TrapInfo trap_;
  std::vector<CodeEntry> code_cache_;
  bool fusion_suppressed_ = false;
  bool data_window_enabled_ = false;
  DataWindow read_windows_[kDataWindowWays];   // Most recently used first.
  DataWindow write_windows_[kDataWindowWays];  // Most recently used first.
  // IRQ horizon (IrqHorizonOpen): cycle of the next possible IRQ and the
  // bus device generation it was computed under. 0 = expired.
  uint64_t irq_horizon_ = 0;
  uint64_t irq_horizon_device_generation_ = 0;
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_CPU_CPU_H_
