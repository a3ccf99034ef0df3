// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfuzz: fault-injection and differential-execution campaigns against the
// TrustLite platform model (DESIGN.md Sec. 11).
//
//   tlfuzz diff   [--programs N] [--seed S] [--steps M]
//       Runs N seeded random TL32 programs (seeds S, S+1, ...) through the
//       differential executor: fast-path caches enabled vs force-disabled,
//       architectural state compared after every step, then again at the
//       window boundaries of the fast run loop. Exit 1 on divergence.
//
//   tlfuzz inject [--campaigns N] [--events E] [--seed S] [--steps M]
//       Runs N seeded fault-injection campaigns (spurious IRQs, bit-flips,
//       hostile DMA, MPU reprogramming, mid-run resets) on a booted
//       victim-trustlet + nanOS platform, re-checking the DESIGN.md Sec. 7
//       invariants after every event. Exit 1 on violation.
//
// Every failure report prints the responsible seed; re-running with
// --seed <that seed> --programs 1 (or --campaigns 1) reproduces it exactly.

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/harness/differential.h"
#include "src/harness/injector.h"
#include "tools/cli.h"

namespace {

using trustlite::Divergence;
using trustlite::InjectionCampaignConfig;
using trustlite::InjectionCampaignResult;
using trustlite::InjectionEvent;

int Usage() {
  std::fprintf(stderr,
               "usage: tlfuzz diff   [--programs N] [--seed S] [--steps M]\n"
               "       tlfuzz inject [--campaigns N] [--events E] "
               "[--seed S] [--steps M]\n");
  return 2;
}

int RunDiff(uint64_t programs, uint64_t seed0, uint64_t steps) {
  uint64_t divergences = 0;
  for (uint64_t i = 0; i < programs; ++i) {
    const uint64_t seed = seed0 + i;
    // Each program runs twice against the Step() reference: in per-step
    // lockstep, then through the fast run loop in 64-step windows that
    // alternate Cpu::Run and Cpu::RunUntilCycle (fusion, data windows and
    // the IRQ horizon engaged).
    const char* mode = "lockstep";
    std::optional<Divergence> d = trustlite::RunRandomProgramDiff(seed, steps);
    if (!d.has_value()) {
      mode = "windowed";
      d = trustlite::RunRandomProgramDiffWindowed(seed, steps, /*window=*/64);
    }
    if (d.has_value()) {
      ++divergences;
      std::printf("DIVERGENCE seed=%llu %s step=%llu: %s\n",
                  static_cast<unsigned long long>(seed), mode,
                  static_cast<unsigned long long>(d->step), d->what.c_str());
    }
    if ((i + 1) % 1000 == 0) {
      std::printf("diff: %llu/%llu programs, %llu divergences\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(programs),
                  static_cast<unsigned long long>(divergences));
      std::fflush(stdout);
    }
  }
  std::printf("diff campaign: %llu programs x %llu steps, seeds [%llu, %llu]"
              ", %llu divergences\n",
              static_cast<unsigned long long>(programs),
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(seed0),
              static_cast<unsigned long long>(seed0 + programs - 1),
              static_cast<unsigned long long>(divergences));
  return divergences == 0 ? 0 : 1;
}

int RunInject(uint64_t campaigns, int events, uint64_t seed0,
              uint64_t steps_between) {
  static const char* kEventNames[] = {"spurious-irq", "ram-bit-flip",
                                      "reg-bit-flip", "hostile-dma",
                                      "mpu-reprogram", "mid-run-reset"};
  uint64_t violations = 0;
  InjectionCampaignResult totals;
  for (uint64_t i = 0; i < campaigns; ++i) {
    InjectionCampaignConfig config;
    config.seed = seed0 + i;
    config.events = events;
    config.steps_between = steps_between;
    const InjectionCampaignResult result = RunInjectionCampaign(config);
    totals.steps_executed += result.steps_executed;
    totals.events_injected += result.events_injected;
    totals.halts_recovered += result.halts_recovered;
    totals.dma_faults += result.dma_faults;
    totals.mpu_denials += result.mpu_denials;
    totals.secure_entries += result.secure_entries;
    totals.invariant_checks += result.invariant_checks;
    for (int e = 0; e < static_cast<int>(InjectionEvent::kNumEvents); ++e) {
      totals.event_counts[e] += result.event_counts[e];
    }
    if (!result.ok()) {
      ++violations;
      std::printf("VIOLATION seed=%llu:\n",
                  static_cast<unsigned long long>(config.seed));
      for (const std::string& v : result.violations) {
        std::printf("  %s\n", v.c_str());
      }
    }
  }
  std::printf("injection campaign: %llu campaigns, seeds [%llu, %llu]\n",
              static_cast<unsigned long long>(campaigns),
              static_cast<unsigned long long>(seed0),
              static_cast<unsigned long long>(seed0 + campaigns - 1));
  std::printf("  steps=%llu events=%llu checks=%llu secure_entries=%llu\n",
              static_cast<unsigned long long>(totals.steps_executed),
              static_cast<unsigned long long>(totals.events_injected),
              static_cast<unsigned long long>(totals.invariant_checks),
              static_cast<unsigned long long>(totals.secure_entries));
  std::printf(
      "  halts_recovered=%llu dma_faults=%llu mpu_denials=%llu\n",
      static_cast<unsigned long long>(totals.halts_recovered),
      static_cast<unsigned long long>(totals.dma_faults),
      static_cast<unsigned long long>(totals.mpu_denials));
  for (int e = 0; e < static_cast<int>(InjectionEvent::kNumEvents); ++e) {
    std::printf("  %-14s %llu\n", kEventNames[e],
                static_cast<unsigned long long>(totals.event_counts[e]));
  }
  std::printf("  violations=%llu\n",
              static_cast<unsigned long long>(violations));
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  uint64_t programs = 10000;
  uint64_t campaigns = 20;
  int events = 200;
  uint64_t seed = 1;
  uint64_t steps = 0;  // 0 = per-mode default.
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    bool ok = false;
    if (arg == "--programs") {
      ok = trustlite::ParseNumber("tlfuzz", arg, value, &programs);
    } else if (arg == "--campaigns") {
      ok = trustlite::ParseNumber("tlfuzz", arg, value, &campaigns);
    } else if (arg == "--events") {
      ok = trustlite::ParseNumber("tlfuzz", arg, value, &events);
    } else if (arg == "--seed") {
      ok = trustlite::ParseNumber("tlfuzz", arg, value, &seed);
    } else if (arg == "--steps") {
      ok = trustlite::ParseNumber("tlfuzz", arg, value, &steps);
    } else {
      return Usage();
    }
    if (!ok) {
      return 2;
    }
  }
  if (mode == "diff") {
    return RunDiff(programs, seed, steps == 0 ? 400 : steps);
  }
  if (mode == "inject") {
    return RunInject(campaigns, events, seed, steps == 0 ? 400 : steps);
  }
  return Usage();
}
