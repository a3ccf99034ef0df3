// Copyright 2026 The TrustLite Reproduction Authors.
//
// Platform: the reference TrustLite SoC (paper Fig. 1) — CPU core, EA-MPU,
// PROM, on-chip SRAM, external DRAM, timer, UART, SHA-256 engine, TRNG,
// GPIO, and the system control block — wired to one bus. This is the
// top-level object examples, tests and benches instantiate.

#ifndef TRUSTLITE_SRC_PLATFORM_PLATFORM_H_
#define TRUSTLITE_SRC_PLATFORM_PLATFORM_H_

#include <atomic>
#include <memory>

#include "src/common/status.h"
#include "src/cpu/cpu.h"
#include "src/dev/dma.h"
#include "src/dev/gpio.h"
#include "src/dev/sha_accel.h"
#include "src/dev/sysctl.h"
#include "src/dev/timer.h"
#include "src/dev/trng.h"
#include "src/dev/uart.h"
#include "src/loader/secure_loader.h"
#include "src/loader/system_image.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/mem/memory.h"
#include "src/mpu/ea_mpu.h"
#include "src/platform/observe/hub.h"

namespace trustlite {

struct PlatformConfig {
  // EA-MPU sizing (production-time choice; Sec. 3.2: "e.g. 12 or 16 region
  // registers"). Set with_mpu = false for a bare core.
  bool with_mpu = true;
  int mpu_regions = 16;
  int mpu_rules = 96;
  // CPU instantiation (Sec. 3.6: exceptions engine is optional).
  bool secure_exceptions = true;
  bool sanitize_faulting_ip = false;
  CycleModel cycles;
  uint64_t trng_seed = 0x7472757374/*"trust"*/;
  // Memory-system timing: external DRAM penalty per access, and the SHA
  // engine's per-block latency (0 = fully pipelined).
  uint32_t dram_wait_states = 0;
  uint32_t sha_cycles_per_block = 0;
  // Optional DMA engine (paper Sec. 6 future work; see src/dev/dma.h).
  bool with_dma = false;
  DmaEngine::Mode dma_mode = DmaEngine::Mode::kExecutionAware;
  // Host-side simulator fast path (code cache, EA-MPU subject and coverage
  // memos, bus routing memo, Cpu::Run's fast run loop). Disabled by the
  // differential-execution harness to pit the cached interpreter against the
  // uncached reference; guest-visible behavior must be identical either way
  // (DESIGN.md Sec. 10/11).
  bool fast_path = true;
  // Superinstruction fusion on top of the fast path (DESIGN.md §15). Split
  // out so the interpreter benches can measure the fast run loop with and
  // without fusion; no effect when fast_path is off.
  bool fusion = true;
};

// Aggregated fast-path counters (bus routing, code cache, EA-MPU subject
// memo and rule evaluations). Host-side simulation telemetry, surfaced by
// `tlsim run --stats`.
struct FastPathStats {
  BusStats bus;
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  // Superinstruction fusion counters (see CpuStats in cpu.h).
  uint64_t fusion_groups = 0;
  uint64_t fusion_retired = 0;
  uint64_t fusion_builds = 0;
  uint64_t fusion_invalidations = 0;
  // Data-access window counters (see CpuStats in cpu.h).
  uint64_t data_window_hits = 0;
  uint64_t data_window_misses = 0;
  // Entries the CPU's code cache holds, 128 bytes each: a gauge, not a
  // counter (Cpu::code_entries; a snapshot restore resets it).
  uint32_t code_entries = 0;
  MpuStats mpu;  // Zeroed when the platform has no MPU.
};

class Platform {
 public:
  explicit Platform(const PlatformConfig& config = {});

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  Bus& bus() { return bus_; }
  Cpu& cpu() { return *cpu_; }
  EaMpu* mpu() { return mpu_.get(); }  // Null when with_mpu == false.
  Prom& prom() { return *prom_; }
  Ram& sram() { return *sram_; }
  Ram& dram() { return *dram_; }
  Timer& timer() { return *timer_; }
  Uart& uart() { return *uart_; }
  ShaAccel& sha() { return *sha_; }
  Trng& trng() { return *trng_; }
  Gpio& gpio() { return *gpio_; }
  SysCtl& sysctl() { return *sysctl_; }
  DmaEngine* dma() { return dma_.get(); }  // Null unless with_dma.
  const PlatformConfig& config() const { return config_; }

  // Flashes a built system image into PROM at the loader's directory base.
  Status InstallImage(const SystemImage& image,
                      uint32_t directory = kPromDirectoryBase);

  // Runs the Secure Loader. Does not start the CPU.
  Result<LoadReport> Boot(const LoaderConfig& loader_config = {});

  // Boot + point the CPU at the OS entry (Fig. 5 step 4).
  Result<LoadReport> BootAndLaunch(const LoaderConfig& loader_config = {});

  // Places the CPU at the report's OS entry with the OS stack.
  void LaunchOs(const LoadReport& report);

  // Platform reset: CPU and device state cleared, memory contents preserved
  // (TrustLite does not rely on hardware memory wipe; Sec. 3.5).
  void HardReset();

  // Steps the CPU until halt or the instruction budget runs out.
  StepEvent Run(uint64_t max_instructions);

  // Steps the CPU until its cycle counter reaches `target_cycle` (the fleet
  // executor's run-quantum primitive; see Cpu::RunUntilCycle for the
  // overshoot contract).
  StepEvent RunUntilCycle(uint64_t target_cycle);

  // Steps until the CPU is about to execute `target_ip` (or halts / exceeds
  // `max_steps`). Returns true if the target was reached. Used by benches to
  // measure simulated-cycle intervals between program points.
  bool RunUntilIp(uint32_t target_ip, uint64_t max_steps);

  // Snapshot of all simulation fast-path counters. Semantics across
  // HardReset: cumulative, like CpuStats (see cpu.h) — HardReset clears
  // architectural device/CPU state but no host-side telemetry counters.
  FastPathStats fast_path_stats() const;

  // --- Observability (DESIGN.md §12) ---
  // Registers `sink` with the platform's EventHub and (re)wires every
  // component's event pointer. With no sinks registered the pointers are
  // null and the simulation fast path is untouched. Sinks are not owned;
  // remove a sink before destroying it. Interest flags
  // (WantsInstructionEvents / WantsMpuCheckEvents / WantsIrqRaiseEvents) are
  // sampled here — re-add a sink if they change.
  void AddEventSink(EventSink* sink);
  void RemoveEventSink(EventSink* sink);

  // --- Threading contract ---
  // A Platform is single-threaded state: exactly one thread may drive it at
  // a time, and nothing inside takes locks. Debug builds enforce this with
  // a thread-affinity latch — the first affinity-checked call (InstallImage,
  // Boot, Run, RunUntilCycle, RunUntilIp, HardReset) records the calling
  // thread, and any later call from a different thread asserts. Ownership
  // may legally migrate between threads across a synchronization point
  // (e.g. the fleet executor's quantum barrier hands nodes to whichever
  // worker steals them next); the finishing owner calls
  // ReleaseThreadAffinity() to open the latch for the next thread. No-op in
  // NDEBUG builds.
  void ReleaseThreadAffinity() {
    owner_thread_.store(0, std::memory_order_release);
  }

 private:
  void RewireEventSinks();
  void AssertThreadAffinity() const;

  PlatformConfig config_;
  Bus bus_;
  std::unique_ptr<Prom> prom_;
  std::unique_ptr<Ram> sram_;
  std::unique_ptr<Ram> dram_;
  std::unique_ptr<SysCtl> sysctl_;
  std::unique_ptr<EaMpu> mpu_;
  std::unique_ptr<Timer> timer_;
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<ShaAccel> sha_;
  std::unique_ptr<Trng> trng_;
  std::unique_ptr<Gpio> gpio_;
  std::unique_ptr<DmaEngine> dma_;
  std::unique_ptr<Cpu> cpu_;
  EventHub hub_;
  // One-Platform-per-thread latch (see ReleaseThreadAffinity). 0 = open.
  mutable std::atomic<size_t> owner_thread_{0};
};

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_PLATFORM_PLATFORM_H_
