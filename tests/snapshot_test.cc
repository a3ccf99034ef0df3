// Copyright 2026 The TrustLite Reproduction Authors.
// Snapshot/restore subsystem tests (DESIGN.md §14): byte-stability of the
// on-disk format, the restore-equals-live digest invariant at random
// checkpoints across the differential corpus, fail-closed handling of
// truncated/bit-flipped snapshots, the per-device snapshot-generation
// counters across HardReset, checkpointed record-replay bisection,
// warm-boot fleet provisioning, and the state digest's byte stream.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/chunks.h"
#include "src/common/rng.h"
#include "src/dev/gpio.h"
#include "src/dev/uart.h"
#include "src/fleet/attest.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/harness/differential.h"
#include "src/isa/assembler.h"
#include "src/mem/layout.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"
#include "tests/legacy_state_digest.h"
#include "tests/reference_state_digest.h"

namespace trustlite {
namespace {

void LoadAt(Platform& platform, const std::string& source, uint32_t origin) {
  Result<AsmOutput> out = Assemble(source, origin);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
}

// A small guest that exercises RAM, the UART, the timer and the SHA engine
// so most device snapshot chunks carry real state.
constexpr char kBusyGuest[] = R"(
start:
    li   r1, 0xF0003000       ; uart
    movi r2, 65               ; 'A'
    movi r3, 0
    li   r6, 0xF0002000       ; timer
    movi r7, 500
    stw  r7, [r6 + 4]         ; period
    movi r7, 1
    stw  r7, [r6 + 0]         ; enable
loop:
    stw  r2, [r1 + 0]         ; uart tx
    addi r2, r2, 1
    movi r4, 90               ; 'Z'
    bltu r2, r4, no_wrap
    movi r2, 65
no_wrap:
    li   r5, 0x00120000       ; dram scribble
    shli r8, r3, 2
    add  r5, r5, r8
    stw  r2, [r5]
    addi r3, r3, 1
    movi r4, 2000
    bltu r3, r4, loop
    halt
)";

Platform* NewBusyPlatform() {
  Platform* platform = new Platform();
  Result<AsmOutput> out = Assemble(kBusyGuest, 0x00030000);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    EXPECT_TRUE(platform->bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  platform->cpu().Reset(0x00030000);
  platform->cpu().set_reg(kRegSp, 0x00040000);
  return platform;
}

// ---------------------------------------------------------------------------
// Round-trip byte identity and the restore invariant.

TEST(SnapshotFormatTest, SaveIsByteStable) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(1000);
  Result<std::vector<uint8_t>> a = SavePlatform(*platform);
  Result<std::vector<uint8_t>> b = SavePlatform(*platform);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b) << "saving the same state twice must be bit-identical";
}

TEST(SnapshotFormatTest, SaveRestoreSaveRoundTripsExactly) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(1234);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());

  Platform other;
  ASSERT_TRUE(RestorePlatform(&other, *saved).ok());
  Result<std::vector<uint8_t>> resaved = SavePlatform(other);
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*saved, *resaved);
  EXPECT_EQ(PlatformStateDigest(*platform), PlatformStateDigest(other));
}

TEST(SnapshotFormatTest, RestoreIntoAUsedPlatformMatchesAFreshOne) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(1234);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());

  // The used platform ran further and holds bytes on pages the snapshot
  // does not carry; the restore's Fill(0) must clear every one of them.
  std::unique_ptr<Platform> used(NewBusyPlatform());
  used->Run(5000);
  for (Ram* ram : {&used->sram(), &used->dram()}) {
    for (uint32_t page = 0; page < ram->size(); page += 7 * kRamPageSize) {
      ASSERT_TRUE(ram->LoadBytes(page + 17, std::vector<uint8_t>{0xEE}).ok());
    }
  }
  Platform fresh;
  ASSERT_TRUE(RestorePlatform(used.get(), *saved).ok());
  ASSERT_TRUE(RestorePlatform(&fresh, *saved).ok());
  EXPECT_EQ(PlatformStateDigest(*used), PlatformStateDigest(fresh));
  EXPECT_EQ(PlatformStateDigest(*used),
            Sha256Hash(ReferenceDigestStream(*used)));
  Result<std::vector<uint8_t>> from_used = SavePlatform(*used);
  Result<std::vector<uint8_t>> from_fresh = SavePlatform(fresh);
  ASSERT_TRUE(from_used.ok());
  ASSERT_TRUE(from_fresh.ok());
  EXPECT_EQ(*from_used, *from_fresh);
  EXPECT_EQ(*from_used, *saved);
}

TEST(SnapshotFormatTest, RestoredRunContinuesBitIdentically) {
  std::unique_ptr<Platform> live(NewBusyPlatform());
  live->Run(700);
  Result<std::vector<uint8_t>> saved = SavePlatform(*live);
  ASSERT_TRUE(saved.ok());

  Platform resumed;
  ASSERT_TRUE(RestorePlatform(&resumed, *saved).ok());

  // The subsequent execution transcript must be bit-identical: run both to
  // completion and compare the full state digests.
  live->Run(1'000'000);
  resumed.Run(1'000'000);
  EXPECT_TRUE(live->cpu().halted());
  EXPECT_TRUE(resumed.cpu().halted());
  EXPECT_EQ(PlatformStateDigest(*live), PlatformStateDigest(resumed));
  EXPECT_EQ(live->cpu().cycles(), resumed.cpu().cycles());
  EXPECT_EQ(live->uart().output(), resumed.uart().output());
}

TEST(SnapshotFormatTest, ConfigRoundTrips) {
  PlatformConfig config;
  config.with_mpu = true;
  config.mpu_regions = 12;
  config.mpu_rules = 48;
  config.with_dma = true;
  config.dram_wait_states = 3;
  Platform platform(config);
  Result<std::vector<uint8_t>> saved = SavePlatform(platform);
  ASSERT_TRUE(saved.ok());
  Result<PlatformConfig> read = SnapshotPlatformConfig(*saved);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->with_mpu, config.with_mpu);
  EXPECT_EQ(read->mpu_regions, config.mpu_regions);
  EXPECT_EQ(read->mpu_rules, config.mpu_rules);
  EXPECT_EQ(read->with_dma, config.with_dma);
  EXPECT_EQ(read->dram_wait_states, config.dram_wait_states);

  // A platform built from the read-back config accepts the snapshot.
  Platform clone(*read);
  EXPECT_TRUE(RestorePlatform(&clone, *saved).ok());
}

TEST(SnapshotFormatTest, MismatchedPlatformShapeFailsClosed) {
  PlatformConfig small_config;
  small_config.mpu_regions = 8;
  small_config.mpu_rules = 16;
  Platform small_mpu(small_config);
  Result<std::vector<uint8_t>> saved = SavePlatform(small_mpu);
  ASSERT_TRUE(saved.ok());
  Platform default_shape;
  const Status status = RestorePlatform(&default_shape, *saved);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Negative tests: corrupted snapshots must fail closed (Status error, the
// target platform untouched).

TEST(SnapshotCorruptionTest, TruncationsNeverPartiallyRestore) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(900);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());

  Xoshiro256 rng(0xDEAD);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> truncated(
        saved->begin(),
        saved->begin() + static_cast<long>(rng.NextBelow(saved->size())));
    Platform target;
    const Sha256Digest before = PlatformStateDigest(target);
    EXPECT_FALSE(RestorePlatform(&target, truncated).ok())
        << "truncation to " << truncated.size() << " bytes was accepted";
    EXPECT_EQ(before, PlatformStateDigest(target))
        << "failed restore mutated the target platform";
  }
}

TEST(SnapshotCorruptionTest, BitFlipsNeverPartiallyRestore) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(900);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());

  Xoshiro256 rng(0xBEEF);
  for (int trial = 0; trial < 128; ++trial) {
    std::vector<uint8_t> flipped = *saved;
    const size_t byte = rng.NextBelow(flipped.size());
    flipped[byte] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    Platform target;
    const Sha256Digest before = PlatformStateDigest(target);
    EXPECT_FALSE(RestorePlatform(&target, flipped).ok())
        << "bit flip at byte " << byte << " was accepted";
    EXPECT_EQ(before, PlatformStateDigest(target))
        << "failed restore mutated the target platform";
  }
}

TEST(SnapshotCorruptionTest, SkippedChecksumsStillFailClosedOnFraming) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(900);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());

  // verify_checksums=false (the warm-boot amortization) restores a clean
  // buffer correctly...
  SnapshotRestoreOptions no_crc;
  no_crc.verify_checksums = false;
  Platform clean;
  ASSERT_TRUE(RestorePlatform(&clean, *saved, no_crc).ok());
  EXPECT_EQ(PlatformStateDigest(*platform), PlatformStateDigest(clean));

  // ...and structural corruption (truncation, bad magic, bad chunk sizes)
  // is still rejected by framing checks alone; only payload bit rot relies
  // on the CRC, which the first (verifying) restore of a warm-boot batch
  // covers.
  Xoshiro256 rng(0xCAFE);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<uint8_t> truncated(
        saved->begin(),
        saved->begin() + static_cast<long>(rng.NextBelow(saved->size())));
    Platform target;
    const Sha256Digest before = PlatformStateDigest(target);
    EXPECT_FALSE(RestorePlatform(&target, truncated, no_crc).ok())
        << "truncation to " << truncated.size()
        << " bytes was accepted with checksums off";
    EXPECT_EQ(before, PlatformStateDigest(target))
        << "failed restore mutated the target platform";
  }
  std::vector<uint8_t> bad_magic = *saved;
  bad_magic[0] ^= 0xFF;
  Platform target;
  EXPECT_FALSE(RestorePlatform(&target, bad_magic, no_crc).ok());
}

// Rebuilds `snapshot` chunk by chunk, letting `edit` rewrite payloads (the
// CRCs are recomputed, so only the snapshot's own checks can object).
template <typename Edit>
std::vector<uint8_t> Rechunk(const std::vector<uint8_t>& snapshot, Edit edit) {
  std::vector<Chunk> chunks;
  EXPECT_TRUE(WalkChunks(snapshot, kSnapshotFormat, &chunks).ok());
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> edited;
  for (const Chunk& chunk : chunks) {
    edited.emplace_back(chunk.tag, std::vector<uint8_t>(
                                       chunk.data, chunk.data + chunk.size));
  }
  edit(&edited);
  std::vector<uint8_t> out;
  AppendChunkHeader(out, kSnapshotFormat,
                    static_cast<uint32_t>(edited.size()));
  for (const auto& [tag, payload] : edited) {
    AppendChunk(out, tag, payload);
  }
  return out;
}

TEST(SnapshotFormatTest, OutOfRangePlatformShapeFailsClosed) {
  // `tlsnap verify` and `tlsim run --resume-from` build their Platform from
  // PCFG, and the EA-MPU constructor only asserts its bank sizes: 0xFFFFFFFF
  // regions used to abort both tools with std::length_error. Each crafted
  // PCFG below has valid framing and CRCs and one field out of range; the
  // config reader and the restore both fail with INVALID_ARGUMENT, and no
  // Platform is built from the crafted shape.
  Platform platform;
  Result<std::vector<uint8_t>> saved = SavePlatform(platform);
  ASSERT_TRUE(saved.ok());
  // PCFG payload: four flag bytes, then LE32 mpu_regions, mpu_rules and
  // dma_mode (docs/SNAPSHOT_FORMAT.md).
  const auto with_shape = [&](size_t offset, uint32_t value) {
    return Rechunk(*saved, [&](auto* chunks) {
      StoreLe32(chunks->front().second.data() + offset, value);
    });
  };
  struct BadField {
    const char* name;
    size_t offset;
    uint32_t value;
  };
  const BadField bad_fields[] = {
      {"mpu_regions", 4, 0},
      {"mpu_regions", 4, kMpuMaxRegions + 1},
      {"mpu_regions", 4, 0x10000000},
      {"mpu_regions", 4, 0xFFFFFFFF},
      {"mpu_rules", 8, 0},
      {"mpu_rules", 8, kMpuMaxRules + 1},
      {"mpu_rules", 8, 0xFFFFFFFF},
      {"dma_mode", 12, 2},
      {"dma_mode", 12, 0xFFFFFFFF},
  };
  for (const BadField& field : bad_fields) {
    SCOPED_TRACE(testing::Message() << field.name << " = " << field.value);
    const std::vector<uint8_t> crafted = with_shape(field.offset, field.value);
    const Result<PlatformConfig> config = SnapshotPlatformConfig(crafted);
    ASSERT_FALSE(config.ok());
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(RestorePlatform(&platform, crafted).code(),
              StatusCode::kInvalidArgument);
  }
  // The largest banks the 4 KiB register block holds still read back.
  const Result<PlatformConfig> widest =
      SnapshotPlatformConfig(Rechunk(*saved, [](auto* chunks) {
        StoreLe32(chunks->front().second.data() + 4, kMpuMaxRegions);
        StoreLe32(chunks->front().second.data() + 8, kMpuMaxRules);
      }));
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->mpu_regions, 112);
  EXPECT_EQ(widest->mpu_rules, 512);
}

TEST(SnapshotCorruptionTest, MalformedDevicePayloadLeavesTargetUntouched) {
  // Framing and CRCs are valid, but the uart payload carries one byte more
  // than the uart parses. The restore must fail before it writes RAM, the
  // CPU or any device of the target.
  FleetConfig config;
  config.nodes = 1;
  config.seed = 42;
  Fleet source(config);
  ASSERT_TRUE(ProvisionAttestationFleet(&source, FleetProvisionConfig{}).ok());
  source.RunQuanta(4);
  Result<std::vector<uint8_t>> saved = SavePlatform(source.node(0).platform());
  ASSERT_TRUE(saved.ok());
  const std::vector<uint8_t> bad = Rechunk(*saved, [](auto* chunks) {
    for (auto& [tag, payload] : *chunks) {
      if (tag != kChunkDevice) {
        continue;
      }
      // DEV payload: name_len(4) name state_len(4) state.
      const uint32_t name_len = LoadLe32(payload.data());
      if (std::string(payload.begin() + 4, payload.begin() + 4 + name_len) !=
          "uart") {
        continue;
      }
      uint8_t* state_len = payload.data() + 4 + name_len;
      StoreLe32(state_len, LoadLe32(state_len) + 1);
      payload.push_back(0);
    }
  });

  Fleet fresh(config);
  ASSERT_TRUE(ProvisionAttestationFleet(&fresh, FleetProvisionConfig{}).ok());
  Platform& target = fresh.node(0).platform();
  const Sha256Digest digest_before = PlatformStateDigest(target);
  const uint64_t cycles_before = target.cpu().cycles();
  Result<std::vector<uint8_t>> state_before = SavePlatform(target);
  ASSERT_TRUE(state_before.ok());

  const Status status = RestorePlatform(&target, bad);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("uart"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(PlatformStateDigest(target), digest_before);
  EXPECT_EQ(target.cpu().cycles(), cycles_before);
  Result<std::vector<uint8_t>> state_after = SavePlatform(target);
  ASSERT_TRUE(state_after.ok());
  EXPECT_TRUE(*state_after == *state_before)
      << "a device or memory of the target changed";
}

TEST(SnapshotCorruptionTest, EndBeforeTheLastChunkFailsTheWalk) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(900);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());
  // An END spliced in before the DIGE chunk: every reader rejects it, not
  // only the restore.
  const std::vector<uint8_t> early_end = Rechunk(*saved, [](auto* chunks) {
    chunks->insert(chunks->end() - 2,
                   std::make_pair(kChunkEnd, std::vector<uint8_t>{}));
  });
  EXPECT_FALSE(InspectSnapshot(early_end).ok());
  EXPECT_FALSE(DiffSnapshots(early_end, *saved).ok());
  EXPECT_FALSE(SnapshotPlatformConfig(early_end).ok());
  Platform target;
  EXPECT_FALSE(RestorePlatform(&target, early_end).ok());
  // The unmodified rebuild still reads back.
  EXPECT_TRUE(InspectSnapshot(Rechunk(*saved, [](auto*) {})).ok());
}

// ---------------------------------------------------------------------------
// Property test: at random checkpoints across the differential corpus,
// save -> restore -> save is byte-identical and the restored platform's
// digest matches the live one.

TEST(SnapshotPropertyTest, RestoreEqualsLiveAcrossDifferentialCorpus) {
  Xoshiro256 rng(0x534E4150);  // 'SNAP'
  int checkpoints = 0;
  for (uint64_t seed = 1; checkpoints < 1000; ++seed) {
    DifferentialExecutor diff;
    BuildRandomScenario(diff, seed, RandomProgramOptions{});
    Platform& live = diff.fast();
    // A handful of random checkpoints per scenario.
    for (int k = 0; k < 25 && !live.cpu().halted(); ++k) {
      for (uint64_t s = rng.NextBelow(200) + 1;
           s > 0 && !live.cpu().halted(); --s) {
        live.cpu().Step();
      }
      Result<std::vector<uint8_t>> saved = SavePlatform(live);
      ASSERT_TRUE(saved.ok()) << saved.status().ToString();

      Platform clone;
      ASSERT_TRUE(RestorePlatform(&clone, *saved).ok())
          << "seed " << seed << " checkpoint " << k;
      EXPECT_EQ(PlatformStateDigest(live), PlatformStateDigest(clone))
          << "seed " << seed << " checkpoint " << k;
      Result<std::vector<uint8_t>> resaved = SavePlatform(clone);
      ASSERT_TRUE(resaved.ok());
      EXPECT_EQ(*saved, *resaved)
          << "seed " << seed << " checkpoint " << k
          << ": save -> restore -> save is not byte-identical";
      ++checkpoints;
    }
  }
  EXPECT_GE(checkpoints, 1000);
}

// Platform-shape matrix: the round-trip invariants must hold for every
// supported combination of {with_mpu, secure_exceptions, DMA off /
// unchecked / execution-aware}, not just the default shape — optional
// devices and security features may not silently drop snapshot chunks.
TEST(SnapshotPropertyTest, RoundTripHoldsAcrossPlatformConfigMatrix) {
  const DmaEngine::Mode kDmaModes[] = {DmaEngine::Mode::kUnchecked,
                                       DmaEngine::Mode::kExecutionAware};
  for (bool with_mpu : {true, false}) {
    for (bool secure_exceptions : {true, false}) {
      for (int dma = 0; dma < 3; ++dma) {
      for (uint32_t wait_states : {0u, 3u}) {
        PlatformConfig config;
        config.with_mpu = with_mpu;
        config.secure_exceptions = secure_exceptions;
        config.with_dma = dma > 0;
        if (config.with_dma) {
          config.dma_mode = kDmaModes[dma - 1];
        }
        config.dram_wait_states = wait_states;
        SCOPED_TRACE(testing::Message()
                     << "mpu=" << with_mpu << " sec-exc=" << secure_exceptions
                     << " dma=" << dma << " waits=" << wait_states);

        Platform live(config);
        LoadAt(live, kBusyGuest, 0x00030000);
        live.cpu().Reset(0x00030000);
        live.cpu().set_reg(kRegSp, 0x00040000);
        live.Run(1234);

        Result<std::vector<uint8_t>> saved = SavePlatform(live);
        ASSERT_TRUE(saved.ok()) << saved.status().ToString();
        Platform clone(config);
        ASSERT_TRUE(RestorePlatform(&clone, *saved).ok());
        EXPECT_EQ(PlatformStateDigest(live), PlatformStateDigest(clone));
        Result<std::vector<uint8_t>> resaved = SavePlatform(clone);
        ASSERT_TRUE(resaved.ok());
        EXPECT_EQ(*saved, *resaved);

        // Continued execution stays bit-identical to the live platform.
        live.Run(20'000);
        clone.Run(20'000);
        EXPECT_EQ(PlatformStateDigest(live), PlatformStateDigest(clone));
        EXPECT_EQ(live.uart().output(), clone.uart().output());
      }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Regression (PR 3 bug class): HardReset must clear the per-device
// snapshot-generation counters along with the rest of the device state.

TEST(SnapshotGenerationTest, HardResetClearsGenerationCounters) {
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(500);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(RestorePlatform(platform.get(), *saved).ok());
  EXPECT_EQ(platform->uart().snapshot_generation(), 2u)
      << "one SaveState + one LoadState";
  EXPECT_EQ(platform->timer().snapshot_generation(), 2u);

  platform->HardReset();
  for (Device* device : platform->bus().devices()) {
    EXPECT_EQ(device->snapshot_generation(), 0u)
        << "device '" << device->name()
        << "' kept a stale snapshot generation across HardReset";
  }
}

TEST(SnapshotGenerationTest, FailedLoadDoesNotBumpGeneration) {
  Platform platform;
  const std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(platform.uart().LoadState(garbage.data(), garbage.size()).ok());
  EXPECT_EQ(platform.uart().snapshot_generation(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpointed record-replay.

TEST(CheckpointReplayTest, CleanRunMatchesLockstep) {
  DifferentialExecutor diff;
  BuildRandomScenario(diff, 42, RandomProgramOptions{});
  DifferentialExecutor::CheckpointReplay report =
      diff.RunCheckpointed(20'000, 1'000);
  EXPECT_FALSE(report.divergence.has_value())
      << report.divergence->what << " at step " << report.divergence->step;
  EXPECT_GE(report.checkpoints, 1u);
  EXPECT_EQ(report.replayed_steps, 0u);
}

TEST(CheckpointReplayTest, BisectsPlantedDivergenceToTheExactStep) {
  // Two identical spin loops; plant a divergence by making the "fast"
  // platform see a different operand at a known instruction count.
  DifferentialExecutor diff;
  const char* program = R"(
start:
    li   r1, 0x00120000
    movi r2, 0
loop:
    ldw  r3, [r1]            ; r3 = poisoned cell
    add  r2, r2, r3
    addi r2, r2, 1
    jmp  loop
)";
  diff.ForBoth([&](Platform& p) { LoadAt(p, program, 0x00030000); });
  diff.ForBoth([](Platform& p) {
    p.cpu().Reset(0x00030000);
    p.cpu().set_reg(kRegSp, 0x00040000);
  });
  // Let both run identically for a while, then poison one platform's DRAM
  // cell out-of-band: the next `ldw` (within the current window) diverges.
  for (int i = 0; i < 2500; ++i) {
    diff.fast().cpu().Step();
    diff.reference().cpu().Step();
  }
  ASSERT_TRUE(diff.fast().bus().HostWriteWord(0x00120000, 7));

  DifferentialExecutor::CheckpointReplay report =
      diff.RunCheckpointed(10'000, 512);
  ASSERT_TRUE(report.divergence.has_value());
  // The divergence must land in the first window and be localized to a
  // step index inside it (the first diverging ldw/add).
  EXPECT_EQ(report.window_start, 0u);
  EXPECT_EQ(report.window_end, 512u);
  EXPECT_LT(report.divergence->step, 512u);
  EXPECT_GT(report.replayed_steps, 0u);
  EXPECT_NE(report.divergence->what.find("fast="), std::string::npos)
      << report.divergence->what;
}

// ---------------------------------------------------------------------------
// Warm-boot fleet provisioning.

TEST(WarmBootTest, WarmFleetAttestsLikeColdFleet) {
  for (int threads : {1, 4}) {
    FleetConfig config;
    config.nodes = 6;
    config.seed = 11;
    config.threads = threads;
    Fleet fleet(config);
    FleetProvisionConfig prov;
    prov.warm_boot = true;
    prov.tamper_count = 1;
    Result<std::vector<NodeProvision>> provisions =
        ProvisionAttestationFleet(&fleet, prov);
    ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
    ASSERT_EQ(provisions->size(), 6u);

    FleetAttestor attestor(&fleet, *provisions, AttestPolicy{});
    attestor.Begin();
    for (uint64_t quantum = 0; !attestor.Done() && quantum < 4000;
         ++quantum) {
      fleet.RunQuanta(1);
      attestor.OnQuantumBoundary();
    }
    ASSERT_TRUE(attestor.Done()) << "threads=" << threads;
    EXPECT_EQ(attestor.Verified().size(), 5u) << "threads=" << threads;
    EXPECT_EQ(attestor.Quarantined().size(), 1u) << "threads=" << threads;
  }
}

TEST(WarmBootTest, CloneKeysAndSeedsAreNodeSpecific) {
  FleetConfig config;
  config.nodes = 3;
  config.seed = 77;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();

  // Keys differ per node and match the shared derivation.
  EXPECT_NE((*provisions)[0].key, (*provisions)[1].key);
  EXPECT_EQ((*provisions)[2].key, DeriveDeviceKey(77, 2));
  // Clones are distinguishable state-wise (key bytes live in SRAM).
  EXPECT_NE(fleet.node(1).StateDigest(), fleet.node(2).StateDigest());
}

TEST(WarmBootTest, NodeSnapshottedMidSleepTracksTheLiveNode) {
  // Idle fleet trustlets wait in `wfi`, so a quantum barrier cuts a sleep.
  // The sleeping core is just its IP on the wfi (no ArchState field): the
  // restored node re-issues the wfi and must stay bit-identical to the live
  // node across the following quanta, ticks and trustlet switches included.
  FleetConfig config;
  config.nodes = 2;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  ASSERT_TRUE(ProvisionAttestationFleet(&fleet, prov).ok());
  fleet.RunQuanta(3);
  Platform& live = fleet.node(1).platform();
  ASSERT_EQ(live.cpu().cycles(), fleet.now());  // Stopped on the barrier.
  uint32_t word = 0;
  ASSERT_TRUE(live.bus().HostReadWord(live.cpu().ip(), &word));
  ASSERT_EQ(word, Encode(Instruction{Opcode::kWfi}));

  Result<std::vector<uint8_t>> saved = SavePlatform(live);
  ASSERT_TRUE(saved.ok());
  Result<PlatformConfig> restored_config = SnapshotPlatformConfig(*saved);
  ASSERT_TRUE(restored_config.ok());
  Platform restored(*restored_config);
  ASSERT_TRUE(RestorePlatform(&restored, *saved).ok());
  EXPECT_EQ(PlatformStateDigest(restored), PlatformStateDigest(live));

  const uint64_t interrupts_before = live.cpu().stats().interrupts;
  for (int q = 0; q < 8; ++q) {
    fleet.RunQuanta(1);
    restored.RunUntilCycle(fleet.now());
    ASSERT_EQ(PlatformStateDigest(restored), PlatformStateDigest(live))
        << "quantum " << q;
  }
  EXPECT_GT(live.cpu().stats().interrupts, interrupts_before + 8);
}

// Random registers, IP, FLAGS, halt latch, cycle count, GPIO output and UART
// text, and up to `max_pages` random pages per memory carrying a few bytes
// each (sometimes only the first or the last byte of the page).
void RandomizeSparseState(Platform& p, Xoshiro256& rng, int max_pages) {
  Cpu::ArchState state = p.cpu().SaveArchState();
  for (uint32_t& reg : state.regs) {
    reg = rng.Next32();
  }
  state.ip = rng.Next32() & ~3u;
  state.flags = static_cast<uint32_t>(rng.NextBelow(16));
  state.halted = rng.NextBool();
  state.cycles = rng.Next64();
  p.cpu().RestoreArchState(state);
  ASSERT_EQ(p.gpio().Write(kGpioRegOut, 4, rng.Next32()), AccessResult::kOk);
  for (uint64_t n = rng.NextBelow(12); n > 0; --n) {
    ASSERT_EQ(p.uart().Write(kUartRegTxData, 4,
                             static_cast<uint32_t>(rng.NextInRange(32, 126))),
              AccessResult::kOk);
  }
  for (Ram* ram : {&p.sram(), &p.dram()}) {
    const uint64_t pages = ram->size() / kSnapshotPageSize;
    for (uint64_t n = rng.NextBelow(max_pages + 1); n > 0; --n) {
      const uint32_t page =
          static_cast<uint32_t>(rng.NextBelow(pages) * kSnapshotPageSize);
      switch (rng.NextBelow(3)) {
        case 0:
          ram->LoadBytes(page, std::vector<uint8_t>{0x01});
          break;
        case 1:
          ram->LoadBytes(page + kSnapshotPageSize - 1,
                         std::vector<uint8_t>{0x80});
          break;
        default:
          for (int k = 0; k < 8; ++k) {
            ram->LoadBytes(
                page + static_cast<uint32_t>(rng.NextBelow(kSnapshotPageSize)),
                std::vector<uint8_t>{static_cast<uint8_t>(rng.Next32())});
          }
      }
    }
  }
}

TEST(StateDigestTest, MatchesTheDocumentedStreamOnRandomSparseStates) {
  Xoshiro256 rng(0xD16E57);
  for (int trial = 0; trial < 48; ++trial) {
    Platform p;
    RandomizeSparseState(p, rng, trial < 8 ? trial : 12);
    EXPECT_EQ(PlatformStateDigest(p), Sha256Hash(ReferenceDigestStream(p)))
        << "trial " << trial;
  }
  // Every page non-zero: the stream carries the whole of both memories.
  Platform full;
  for (Ram* ram : {&full.sram(), &full.dram()}) {
    for (uint32_t page = 0; page < ram->size(); page += kSnapshotPageSize) {
      ram->LoadBytes(page + (page / kSnapshotPageSize) % kSnapshotPageSize,
                     std::vector<uint8_t>{0xA5});
    }
  }
  EXPECT_EQ(PlatformStateDigest(full), Sha256Hash(ReferenceDigestStream(full)));
}

TEST(StateDigestTest, EveryOneByteChangeMovesTheDigestAndUndoingRestoresIt) {
  Platform p;
  for (Ram* ram : {&p.sram(), &p.dram()}) {
    ram->LoadBytes(3 * kSnapshotPageSize + 100, std::vector<uint8_t>{1, 2, 3});
  }
  const Sha256Digest base = PlatformStateDigest(p);
  std::set<Sha256Digest> seen = {base};
  for (Ram* ram : {&p.sram(), &p.dram()}) {
    const struct {
      const char* where;
      uint32_t offset;
    } places[] = {
        {"first byte", 0},
        {"last byte", ram->size() - 1},
        {"last byte before a page boundary", kSnapshotPageSize - 1},
        {"first byte after a page boundary", kSnapshotPageSize},
        {"byte in a non-zero page", 3 * kSnapshotPageSize + 101},
        {"byte in an otherwise zero page", 20 * kSnapshotPageSize + 17},
    };
    for (const auto& place : places) {
      SCOPED_TRACE(ram->name() + ": " + place.where);
      const uint8_t before = ram->data()[place.offset];
      ram->LoadBytes(place.offset,
                     std::vector<uint8_t>{static_cast<uint8_t>(before ^ 0x5A)});
      EXPECT_TRUE(seen.insert(PlatformStateDigest(p)).second)
          << "the change did not move the digest to a new value";
      // Writing the old byte back (zero, for a zero page) restores the
      // earlier digest: a page that becomes zero again leaves the stream.
      ram->LoadBytes(place.offset, std::vector<uint8_t>{before});
      EXPECT_EQ(PlatformStateDigest(p), base);
    }
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(StateDigestTest, MovingAPageMovesTheDigest) {
  std::vector<uint8_t> page(kSnapshotPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(7 * i + 1);
  }
  Platform at5;
  at5.sram().LoadBytes(5 * kSnapshotPageSize, page);
  Platform at6;
  at6.sram().LoadBytes(6 * kSnapshotPageSize, page);
  EXPECT_NE(PlatformStateDigest(at5), PlatformStateDigest(at6));

  // From the end of the SRAM list to the start of the DRAM list.
  Platform sram_last;
  sram_last.sram().LoadBytes(kSramSize - kSnapshotPageSize, page);
  Platform dram_first;
  dram_first.dram().LoadBytes(0, page);
  EXPECT_NE(PlatformStateDigest(sram_last), PlatformStateDigest(dram_first));
  for (Platform* p : {&at5, &at6, &sram_last, &dram_first}) {
    EXPECT_EQ(PlatformStateDigest(*p), Sha256Hash(ReferenceDigestStream(*p)));
  }
}

TEST(SnapshotFormatTest, VersionOneSnapshotIsRejected) {
  // Version 2 changed the byte stream under the DIGE digest, so a version-1
  // file fails the walk in every reader instead of its digest check.
  std::unique_ptr<Platform> platform(NewBusyPlatform());
  platform->Run(900);
  Result<std::vector<uint8_t>> saved = SavePlatform(*platform);
  ASSERT_TRUE(saved.ok());
  ASSERT_EQ(LoadLe32(saved->data() + 8), 2u);
  std::vector<uint8_t> v1 = *saved;
  StoreLe32(v1.data() + 8, 1);

  Platform target;
  const Sha256Digest before = PlatformStateDigest(target);
  const Status restored = RestorePlatform(&target, v1);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.message().find("version 1"), std::string::npos)
      << restored.ToString();
  EXPECT_EQ(PlatformStateDigest(target), before);
  // InspectSnapshot backs `tlsnap info`.
  const Result<SnapshotInfo> info = InspectSnapshot(v1);
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Pinned digests. Every other digest check compares two runs of one build
// (live vs restored, t1 vs t8), so a change to the hashed byte stream — or
// to simulated behaviour that moves both sides alike — passes them all.
// These two pin absolute values; update them only for an intended change
// to the digest definition or to guest-visible behaviour. The version-1
// values, recomputed by the test-local copy of that stream, show that the
// pinned runs still reach the states they reached before version 2.

std::string DigestHex(const Sha256Digest& digest) {
  return HexEncode(digest.data(), digest.size());
}

TEST(PinnedDigestTest, SecureLoaderBootedPlatform) {
  // One node cold-booted through the Secure Loader: nanOS, the attestation
  // and FW trustlets, the Trustlet Table and the EA-MPU layout in place.
  FleetConfig config;
  config.nodes = 1;
  config.seed = 42;
  Fleet fleet(config);
  ASSERT_TRUE(ProvisionAttestationFleet(&fleet, FleetProvisionConfig{}).ok());
  Platform& platform = fleet.node(0).platform();
  EXPECT_EQ(DigestHex(LegacyStateDigest(platform)),
            "759396a8752900ebfb6f9bf7365bd4b8346812382ce959c81d7cef67710da109");
  EXPECT_EQ(DigestHex(PlatformStateDigest(platform)),
            "436ddb39e1d9bb36daf757981717762f3417f8a850862f5299243139c519316d");
}

TEST(PinnedDigestTest, WarmFleetAfterFixedQuanta) {
  FleetConfig config;
  config.nodes = 4;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  ASSERT_TRUE(ProvisionAttestationFleet(&fleet, prov).ok());
  fleet.RunQuanta(32);
  EXPECT_EQ(DigestHex(LegacyFleetDigest(fleet)),
            "90f814fb8ed5ea57e4e2b59d189e86a7becc7de15aaba1502a8c37d97c0a32f6");
  EXPECT_EQ(DigestHex(fleet.FleetDigest()),
            "492ed98d2ef3947fac1ef83e961a3b01c2d2df96e56c7c2cb43c46b3a3937705");
}

}  // namespace
}  // namespace trustlite
