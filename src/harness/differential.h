// Copyright 2026 The TrustLite Reproduction Authors.
//
// Differential-execution harness (DESIGN.md Sec. 11): runs the same guest
// program on two Platform instances — one with the simulator fast path
// (code cache, EA-MPU subject and coverage memos, bus route memo) enabled
// and one with every cache force-disabled — and diffs the architectural
// state in lockstep. Any divergence is, by construction, a fast-path bug:
// the caches are pure memoization and must be invisible to the guest.
//
// Compared per step: the step event, IP, FLAGS, the full register file,
// halt state and the cycle counter. Compared at end of run: every memory
// device byte-for-byte, the MPU fault registers, retirement counters and
// the halt trap. The executor also hosts the seeded random-program
// generator shared by tests/differential_test.cc and tools/tlfuzz.cc.

#ifndef TRUSTLITE_SRC_HARNESS_DIFFERENTIAL_H_
#define TRUSTLITE_SRC_HARNESS_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/platform/platform.h"

namespace trustlite {

// First observed difference between the cached and uncached run.
struct Divergence {
  uint64_t step = 0;      // Lockstep index at which the runs split.
  std::string what;       // Human-readable description with both values.
};

class DifferentialExecutor {
 public:
  // Both platforms are built from `config` except for `fast_path`, which is
  // forced on for one and off for the other.
  explicit DifferentialExecutor(const PlatformConfig& config = {});

  Platform& fast() { return *fast_; }
  Platform& reference() { return *ref_; }

  // Applies the same setup (image install, host memory writes, register
  // seeding, ...) to both platforms. Setup must be deterministic: it runs
  // once per platform.
  void ForBoth(const std::function<void(Platform&)>& fn);

  // Steps both CPUs in lockstep for up to `max_steps`, comparing after each
  // step; stops early when both halt. Returns the first divergence, or
  // nullopt if the runs stayed identical through the final-state check.
  std::optional<Divergence> Run(uint64_t max_steps);

  // One lockstep step + comparison (used by callers that interleave their
  // own perturbations). `step` is only used for reporting.
  std::optional<Divergence> StepBoth(uint64_t step);

  // Windowed lockstep: the fast platform advances through the fast run
  // loop — superinstruction fusion, data-access windows and the IRQ horizon
  // all engaged, none of which Step()-based lockstep exercises — in windows
  // that alternate between Cpu::Run(window) and Cpu::RunUntilCycle(cycles +
  // window), the fleet's quantum primitive. After each window the
  // reference single-steps until its cycle counter catches up
  // (cycles advance on every instruction and exception entry, unlike the
  // retire counter, and both sides must be cycle-identical). Architectural
  // state is compared at every window boundary and the full final-state
  // check runs at the end. Fused groups may retire past an instruction
  // budget mid-group, so the reference chases the fast side's actual
  // position rather than the nominal window size.
  std::optional<Divergence> RunWindowed(uint64_t max_steps,
                                        uint64_t window = 256);

  // Full end-state comparison: memories, MPU fault registers, stats, trap.
  std::optional<Divergence> CompareFinalState(uint64_t step);

  // Checkpointed record-replay (DESIGN.md Sec. 14): instead of comparing
  // after every step, both platforms run windows of `checkpoint_interval`
  // steps independently, snapshotting at each boundary; only the boundary
  // states are compared. On a boundary mismatch the dirty window is
  // replayed from its checkpoint, binary-searching for the first diverging
  // step, and the exact per-step divergence is reported. For clean runs
  // this trades the per-step architectural diff for two snapshots per
  // window; for dirty runs it localizes the divergence to the step.
  struct CheckpointReplay {
    // First divergence, exactly as Run() would report it (nullopt = the
    // runs stayed identical through the final-state check).
    std::optional<Divergence> divergence;
    uint64_t checkpoints = 0;       // Boundary snapshots taken per platform.
    uint64_t window_start = 0;      // Dirty window (steps), when diverged.
    uint64_t window_end = 0;
    uint64_t replayed_steps = 0;    // Steps re-executed while bisecting.
  };
  CheckpointReplay RunCheckpointed(uint64_t max_steps,
                                   uint64_t checkpoint_interval = 16384);

 private:
  std::optional<Divergence> CompareArchState(uint64_t step);

  std::unique_ptr<Platform> fast_;
  std::unique_ptr<Platform> ref_;
};

// Options for the seeded random TL32 program generator. Programs are biased
// toward the interesting state space: loads/stores aimed at RAM and MMIO,
// tight branches, register-indirect jumps, SWIs, the occasional undefined
// word and self-modifying store.
struct RandomProgramOptions {
  uint32_t program_base = 0x0003'0000;  // Open SRAM.
  int num_words = 96;
  // When set, the scenario also programs 1..4 random MPU regions and rules
  // (through host MMIO writes, pre-arming) and may enable/lock the unit.
  bool randomize_mpu = true;
  // When set, random fault/SWI handlers (in open memory) are installed and
  // the timer may be armed with a small random period.
  bool randomize_handlers = true;
  bool randomize_timer = true;
};

// Builds one deterministic random scenario from `seed` on both platforms of
// `diff` (program bytes, MPU/handler/timer configuration, register file)
// and returns the entry point. The same seed always produces the same
// scenario.
uint32_t BuildRandomScenario(DifferentialExecutor& diff, uint64_t seed,
                             const RandomProgramOptions& options);

// Convenience: fresh executor + BuildRandomScenario + lockstep run.
// `config` should leave `fast_path` at its default (it is overridden).
std::optional<Divergence> RunRandomProgramDiff(
    uint64_t seed, uint64_t max_steps,
    const RandomProgramOptions& options = {},
    const PlatformConfig& config = {});

// Windowed variant: same scenario, but the fast platform advances through
// the fused fast run loop instead of Step() (see RunWindowed).
// This is the corpus entry point that actually exercises superinstruction
// fusion and the data-access windows.
std::optional<Divergence> RunRandomProgramDiffWindowed(
    uint64_t seed, uint64_t max_steps, uint64_t window = 256,
    const RandomProgramOptions& options = {},
    const PlatformConfig& config = {});

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_HARNESS_DIFFERENTIAL_H_
