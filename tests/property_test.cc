// Copyright 2026 The TrustLite Reproduction Authors.
//
// Property-based tests for the security invariants of DESIGN.md Sec. 7:
// random attacker programs cannot breach isolation, rule evaluation is
// monotonic, the MPU lock is irreversible, and trustlet state survives
// arbitrary preemption points.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/isa/isa.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/platform/platform.h"
#include "src/trustlet/builder.h"

namespace trustlite {
namespace {

// --- Invariant 1: random programs in open memory cannot touch trustlet
// memory. ---------------------------------------------------------------

class RandomAttackerTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomAttackerTest, CannotModifyTrustletMemory) {
  Platform platform;
  SystemImage image;
  TrustletBuildSpec spec;
  spec.name = "VIC";
  spec.code_addr = 0x11000;
  spec.data_addr = 0x12000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = "tl_main:\n    swi 0\n    jmp tl_main\n";
  Result<TrustletMeta> victim = BuildTrustlet(spec);
  ASSERT_TRUE(victim.ok());
  image.Add(*victim);
  NanosConfig os_config;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok());
  image.Add(*os);
  ASSERT_TRUE(platform.InstallImage(image).ok());
  ASSERT_TRUE(platform.Boot().ok());

  // Place a sentinel pattern in the victim's memory (host-level). The top
  // 0x180 bytes of the data region are excluded: they hold the victim's own
  // stack and saved-state frame, which the victim itself legitimately
  // touches if the attacker invokes its entry vector.
  std::vector<uint8_t> code_before;
  ASSERT_TRUE(platform.bus().HostReadBytes(
      0x11000, static_cast<uint32_t>(victim->code.size()), &code_before));
  std::vector<uint8_t> sentinel(0x400 - 0x180);
  Xoshiro256 seed_rng(static_cast<uint64_t>(GetParam()) * 77 + 3);
  for (auto& b : sentinel) {
    b = static_cast<uint8_t>(seed_rng.Next32());
  }
  ASSERT_TRUE(platform.bus().HostWriteBytes(0x12000, sentinel));

  // Generate a random attacker program in open memory. Bias register values
  // toward the victim's addresses so stores actually aim at the target.
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 1337 + 11);
  std::vector<uint8_t> program;
  for (int i = 0; i < 256; ++i) {
    uint32_t word;
    switch (rng.NextBelow(5)) {
      case 0:  // Load a victim-ish address into a register.
        word = Encode({Opcode::kMovi, static_cast<uint8_t>(rng.NextBelow(13)),
                       0, 0,
                       static_cast<int32_t>(0x11000 + rng.NextBelow(0x1400))});
        break;
      case 1:  // Store.
        word = Encode({Opcode::kStw, static_cast<uint8_t>(rng.NextBelow(13)),
                       static_cast<uint8_t>(rng.NextBelow(13)), 0,
                       static_cast<int32_t>(rng.NextBelow(64)) * 4 - 128});
        break;
      case 2:  // Load (probing reads).
        word = Encode({Opcode::kLdw, static_cast<uint8_t>(rng.NextBelow(13)),
                       static_cast<uint8_t>(rng.NextBelow(13)), 0,
                       static_cast<int32_t>(rng.NextBelow(64)) * 4 - 128});
        break;
      case 3:  // ALU noise.
        word = Encode({Opcode::kAdd, static_cast<uint8_t>(rng.NextBelow(13)),
                       static_cast<uint8_t>(rng.NextBelow(13)),
                       static_cast<uint8_t>(rng.NextBelow(13)), 0});
        break;
      default:  // Jump into the victim (must only reach the entry vector).
        word = Encode({Opcode::kJr, 0, static_cast<uint8_t>(rng.NextBelow(13)),
                       0, 0});
        break;
    }
    AppendLe32(program, word);
  }
  AppendLe32(program, Encode({Opcode::kHalt, 0, 0, 0, 0}));
  ASSERT_TRUE(platform.bus().HostWriteBytes(0x30000, program));

  platform.cpu().Reset(0x30000);
  platform.cpu().set_reg(kRegSp, 0x3A000);
  platform.Run(5000);

  // Whatever happened (halt, fault trap, wild jump), the victim's code and
  // data are intact.
  std::vector<uint8_t> code_after;
  ASSERT_TRUE(platform.bus().HostReadBytes(
      0x11000, static_cast<uint32_t>(victim->code.size()), &code_after));
  EXPECT_EQ(code_before, code_after);
  std::vector<uint8_t> data_after;
  ASSERT_TRUE(platform.bus().HostReadBytes(0x12000, 0x400 - 0x180, &data_after));
  EXPECT_EQ(sentinel, data_after);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, RandomAttackerTest,
                         ::testing::Range(0, 40));

// --- Invariant: adding rules is monotonic (never revokes access). -------

class RuleMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(RuleMonotonicityTest, AddingRulesNeverRevokes) {
  EaMpu mpu(kMpuMmioBase, 8, 16);
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 99 + 5);

  // Random regions within a 64 KiB window.
  for (int i = 0; i < 8; ++i) {
    const uint32_t base = 0x10000 + static_cast<uint32_t>(rng.NextBelow(15)) * 0x1000;
    const uint32_t size = (1 + static_cast<uint32_t>(rng.NextBelow(4))) * 0x400;
    mpu.Write(kMpuRegionBank + static_cast<uint32_t>(i) * kMpuRegionStride, 4, base);
    mpu.Write(kMpuRegionBank + static_cast<uint32_t>(i) * kMpuRegionStride + 4, 4,
              base + size);
    mpu.Write(kMpuRegionBank + static_cast<uint32_t>(i) * kMpuRegionStride + 8, 4,
              kMpuAttrEnable | (rng.NextBool() ? kMpuAttrCode : 0u));
  }
  for (int i = 0; i < 8; ++i) {
    mpu.Write(kMpuRuleBank + static_cast<uint32_t>(i) * 4, 4,
              EncodeMpuRule(static_cast<uint32_t>(rng.NextBelow(8)),
                            static_cast<uint32_t>(rng.NextBelow(8)),
                            rng.NextBool(), rng.NextBool(), rng.NextBool()));
  }
  mpu.Write(kMpuRegCtrl, 4, kMpuCtrlEnable);

  // Sample a set of accesses and record the allowed ones.
  struct Probe {
    AccessContext ctx;
    uint32_t addr;
  };
  std::vector<Probe> allowed;
  for (int i = 0; i < 400; ++i) {
    Probe probe;
    probe.ctx.curr_ip = 0x10000 + static_cast<uint32_t>(rng.NextBelow(0x10000));
    probe.ctx.kind = static_cast<AccessKind>(rng.NextBelow(3));
    probe.addr =
        (0x10000 + static_cast<uint32_t>(rng.NextBelow(0x10000))) & ~3u;
    if (mpu.Check(probe.ctx, probe.addr, 4) == AccessResult::kOk) {
      allowed.push_back(probe);
    }
  }
  // Add more random rules in the free slots.
  for (int i = 8; i < 16; ++i) {
    mpu.Write(kMpuRuleBank + static_cast<uint32_t>(i) * 4, 4,
              EncodeMpuRule(static_cast<uint32_t>(rng.NextBelow(8)),
                            static_cast<uint32_t>(rng.NextBelow(8)),
                            rng.NextBool(), rng.NextBool(), rng.NextBool()));
  }
  for (const Probe& probe : allowed) {
    EXPECT_EQ(mpu.Check(probe.ctx, probe.addr, 4), AccessResult::kOk);
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, RuleMonotonicityTest,
                         ::testing::Range(0, 20));

// --- Invariant: the global lock is irreversible under guest writes. ------

class LockFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LockFuzzTest, LockedRegisterFileIsImmutable) {
  EaMpu mpu(kMpuMmioBase, 8, 16);
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  // Random initial config + lock.
  for (uint32_t offset = kMpuRegionBank; offset < kMpuRegionBank + 8 * 16;
       offset += 4) {
    mpu.Write(offset, 4, rng.Next32());
  }
  mpu.Write(kMpuRegCtrl, 4, kMpuCtrlEnable | kMpuCtrlLock);

  auto snapshot = [&mpu]() {
    std::vector<uint32_t> state;
    for (uint32_t offset = kMpuRegionBank; offset < kMpuRegionBank + 8 * 16;
         offset += 4) {
      uint32_t value = 0;
      mpu.Read(offset, 4, &value);
      state.push_back(value);
    }
    for (uint32_t offset = kMpuRuleBank; offset < kMpuRuleBank + 16 * 4;
         offset += 4) {
      uint32_t value = 0;
      mpu.Read(offset, 4, &value);
      state.push_back(value);
    }
    uint32_t ctrl = 0;
    mpu.Read(kMpuRegCtrl, 4, &ctrl);
    state.push_back(ctrl);
    return state;
  };

  const std::vector<uint32_t> before = snapshot();
  // 500 random writes all over the register file (except FAULT_INFO, which
  // is documented as always writable for acknowledgement).
  for (int i = 0; i < 500; ++i) {
    uint32_t offset = (rng.Next32() % 0xA00) & ~3u;
    if (offset == kMpuRegFaultInfo) {
      continue;
    }
    mpu.Write(offset, 4, rng.Next32());
  }
  EXPECT_EQ(before, snapshot());
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, LockFuzzTest, ::testing::Range(0, 10));

// --- Invariant: trustlet computation is preemption-transparent for any
// timer period. -----------------------------------------------------------

class PreemptionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PreemptionFuzzTest, ChecksumUnaffectedByPreemptionTiming) {
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const uint32_t period = 150 + static_cast<uint32_t>(rng.NextBelow(2000));

  Platform platform;
  SystemImage image;
  TrustletBuildSpec spec;
  spec.name = "SUM";
  spec.code_addr = 0x11000;
  spec.data_addr = 0x12000;
  spec.data_size = 0x400;
  spec.stack_size = 0x100;
  spec.body = R"(
tl_main:
    movi r1, 0
    movi r2, 0
    li   r3, 3000
sum_loop:
    addi r1, r1, 1
    mul  r4, r1, r1
    add  r2, r2, r4
    bne  r1, r3, sum_loop
    li   r4, 0x30010
    stw  r2, [r4]
park:
    swi 0
    jmp park
)";
  Result<TrustletMeta> tl = BuildTrustlet(spec);
  ASSERT_TRUE(tl.ok());
  image.Add(*tl);
  NanosConfig os_config;
  os_config.timer_period = period;
  Result<TrustletMeta> os = BuildNanos(os_config);
  ASSERT_TRUE(os.ok());
  image.Add(*os);
  ASSERT_TRUE(platform.InstallImage(image).ok());
  Result<LoadReport> report = platform.BootAndLaunch();
  ASSERT_TRUE(report.ok());

  platform.Run(200000);
  ASSERT_FALSE(platform.cpu().halted()) << platform.cpu().trap().reason;
  uint32_t expected = 0;
  for (uint32_t i = 1; i <= 3000; ++i) {
    expected += i * i;
  }
  uint32_t result = 0;
  ASSERT_TRUE(platform.bus().HostReadWord(0x30010, &result));
  EXPECT_EQ(result, expected) << "period=" << period;
}

INSTANTIATE_TEST_SUITE_P(ManyPeriods, PreemptionFuzzTest,
                         ::testing::Range(0, 15));


// --- Differential check: EaMpu vs an independent reference model built
// straight from the documented semantics (ea_mpu.h header comment). -------

namespace reference {

struct Region {
  uint32_t base, end, attr;
};

bool Enabled(const Region& r) { return (r.attr & kMpuAttrEnable) != 0; }
bool Contains(const Region& r, uint32_t a) {
  return Enabled(r) && a >= r.base && a < r.end;
}

// The first enabled code region containing `ip`, or -1.
int Subject(const std::vector<Region>& regions, uint32_t ip) {
  for (size_t i = 0; i < regions.size(); ++i) {
    if (Contains(regions[i], ip) && (regions[i].attr & kMpuAttrCode) != 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// The reference decision procedure, written independently from the spec:
// subject = first enabled *code* region containing curr_ip; a byte covered
// by any enabled region needs a matching rule; cross-region execute only at
// the object region's first word; compat mode applies privilege filters to
// wildcard-subject rules and drops the entry-vector restriction.
bool Allowed(const std::vector<Region>& regions,
             const std::vector<uint32_t>& rules, uint32_t ctrl,
             const AccessContext& ctx, uint32_t addr, uint32_t width) {
  if ((ctrl & kMpuCtrlEnable) == 0) {
    return true;
  }
  const bool compat = (ctrl & kMpuCtrlCompatMode) != 0;
  const int subject = Subject(regions, ctx.curr_ip);
  const uint32_t granularity = ctx.kind == AccessKind::kFetch ? 1 : width;
  for (uint32_t i = 0; i < granularity; ++i) {
    const uint32_t byte = addr + i;
    bool covered = false;
    bool ok = false;
    for (size_t r = 0; r < regions.size(); ++r) {
      if (!Contains(regions[r], byte)) {
        continue;
      }
      covered = true;
      for (const uint32_t rule : rules) {
        if ((rule & kMpuRuleEnable) == 0) {
          continue;
        }
        if (((rule >> kMpuRuleObjectShift) & 0xFF) != r) {
          continue;
        }
        const uint32_t rule_subject = rule & 0xFF;
        bool subject_match;
        if (rule_subject == kMpuSubjectAny) {
          const uint32_t priv = (rule >> kMpuRulePrivShift) & 0x3;
          subject_match = true;
          if (compat && priv == kMpuPrivUserOnly && ctx.privileged) {
            subject_match = false;
          }
          if (compat && priv == kMpuPrivSupervisorOnly && !ctx.privileged) {
            subject_match = false;
          }
        } else {
          subject_match = subject >= 0 &&
                          rule_subject == static_cast<uint32_t>(subject);
        }
        if (!subject_match) {
          continue;
        }
        if (ctx.kind == AccessKind::kRead && (rule & kMpuRuleRead) != 0) {
          ok = true;
        } else if (ctx.kind == AccessKind::kWrite &&
                   (rule & kMpuRuleWrite) != 0) {
          ok = true;
        } else if (ctx.kind == AccessKind::kFetch &&
                   (rule & kMpuRuleExec) != 0) {
          const bool self = subject >= 0 &&
                            rule_subject == static_cast<uint32_t>(subject) &&
                            r == static_cast<size_t>(subject);
          if (self || compat || addr == regions[r].base) {
            ok = true;
          }
        }
        if (ok) {
          break;
        }
      }
      if (ok) {
        break;
      }
    }
    if (covered && !ok) {
      return false;
    }
  }
  return true;
}

}  // namespace reference

class MpuDifferentialTest : public ::testing::TestWithParam<int> {};

// The subject of the last check, from its telemetry.
struct SubjectSink : EventSink {
  void OnMpuCheck(const MpuCheckEvent& event) override {
    subject = event.subject;
  }
  int subject = -2;
};

// The unit is programmed once, then rewritten through its MMIO registers
// every 50 probes (a rule word, the base, end or attr of an unlocked
// region, or CTRL's compat bit), so the generation-keyed subject and
// coverage memos must follow every change: the probe after a rewrite
// repeats the one before it, which filled the memos under the old
// configuration. Each probe runs with the fast path on and off; both must
// match the model in the decision and in the subject the check reports.
TEST_P(MpuDifferentialTest, ImplementationMatchesReferenceModel) {
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  EaMpu mpu(kMpuMmioBase, 8, 16);
  SubjectSink sink;
  mpu.SetEventSink(&sink, /*want_checks=*/true);
  std::vector<reference::Region> regions;
  std::vector<uint32_t> rules;
  auto random_rule = [&] {
    const uint32_t subject =
        rng.NextBool() ? kMpuSubjectAny
                       : static_cast<uint32_t>(rng.NextBelow(8));
    return EncodeMpuRule(subject, static_cast<uint32_t>(rng.NextBelow(8)),
                         rng.NextBool(), rng.NextBool(), rng.NextBool(),
                         static_cast<uint32_t>(rng.NextBelow(3)));
  };
  auto region_reg = [](size_t index) {
    return kMpuRegionBank + static_cast<uint32_t>(index) * kMpuRegionStride;
  };
  // Half the probe IPs and addresses start inside some region, so subjects
  // and covering regions decide them more often than open memory does.
  auto probe_addr = [&] {
    return rng.NextBool()
               ? regions[rng.NextBelow(regions.size())].base +
                     static_cast<uint32_t>(rng.NextBelow(0x100))
               : 0x10000 + static_cast<uint32_t>(rng.NextBelow(0x8000));
  };
  for (size_t i = 0; i < 8; ++i) {
    reference::Region region;
    region.base = 0x10000 + static_cast<uint32_t>(rng.NextBelow(64)) * 0x100;
    region.end = region.base + static_cast<uint32_t>(rng.NextBelow(8)) * 0x100;
    region.attr = static_cast<uint32_t>(rng.NextBelow(16));  // enable/lock/code/os
    regions.push_back(region);
    mpu.Write(region_reg(i) + 0, 4, region.base);
    mpu.Write(region_reg(i) + 4, 4, region.end);
    mpu.Write(region_reg(i) + 8, 4, region.attr);
  }
  for (int i = 0; i < 16; ++i) {
    rules.push_back(random_rule());
    mpu.Write(kMpuRuleBank + static_cast<uint32_t>(i) * 4, 4, rules.back());
  }
  uint32_t ctrl = kMpuCtrlEnable | (rng.NextBool() ? kMpuCtrlCompatMode : 0u);
  mpu.Write(kMpuRegCtrl, 4, ctrl);

  AccessContext ctx;
  uint32_t addr = 0;
  uint32_t width = 4;
  for (int i = 0; i < 2000; ++i) {
    const bool rewrite = i > 0 && i % 50 == 0;
    if (rewrite) {
      const uint64_t what = rng.NextBelow(3);
      if (what == 0) {
        // A quarter of the new words are disabled rules.
        const size_t index = rng.NextBelow(rules.size());
        rules[index] = random_rule();
        if (rng.NextBelow(4) == 0) {
          rules[index] &= ~kMpuRuleEnable;
        }
        mpu.Write(kMpuRuleBank + static_cast<uint32_t>(index) * 4, 4,
                  rules[index]);
      } else if (what == 1) {
        // A locked region ignores writes, so the model skips it too; new
        // attrs never lock. Bounds land on half-words, so aligned words
        // can straddle a region edge.
        const size_t index = rng.NextBelow(regions.size());
        const uint32_t field = static_cast<uint32_t>(rng.NextBelow(3));
        const uint32_t value =
            field == 2
                ? static_cast<uint32_t>(rng.NextBelow(16)) & ~kMpuAttrLock
                : 0x10000 + static_cast<uint32_t>(rng.NextBelow(72)) * 0x100 +
                      static_cast<uint32_t>(rng.NextBelow(2)) * 2;
        reference::Region& region = regions[index];
        if ((region.attr & kMpuAttrLock) == 0) {
          (field == 0 ? region.base : field == 1 ? region.end : region.attr) =
              value;
          mpu.Write(region_reg(index) + field * 4, 4, value);
        }
      } else {
        ctrl ^= kMpuCtrlCompatMode;
        mpu.Write(kMpuRegCtrl, 4, ctrl);
      }
    } else {
      ctx.curr_ip = probe_addr();
      ctx.kind = static_cast<AccessKind>(rng.NextBelow(3));
      ctx.privileged = rng.NextBool();
      width = ctx.kind == AccessKind::kFetch || rng.NextBool() ? 4u : 1u;
      addr = probe_addr() & (width == 4 ? ~3u : ~0u);
    }
    const bool expected =
        reference::Allowed(regions, rules, ctrl, ctx, addr, width);
    for (const bool fast_path : {true, false}) {
      mpu.SetFastPath(fast_path);
      const bool actual = mpu.Check(ctx, addr, width) == AccessResult::kOk;
      ASSERT_EQ(actual, expected)
          << "seed=" << GetParam() << " i=" << i << " ip=" << ctx.curr_ip
          << " kind=" << static_cast<int>(ctx.kind) << " addr=" << addr
          << " width=" << width << " priv=" << ctx.privileged
          << " fast_path=" << fast_path;
      ASSERT_EQ(sink.subject, reference::Subject(regions, ctx.curr_ip))
          << "seed=" << GetParam() << " i=" << i << " ip=" << ctx.curr_ip
          << " fast_path=" << fast_path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, MpuDifferentialTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace trustlite
