// Copyright 2026 The TrustLite Reproduction Authors.
// Fleet subsystem tests (DESIGN.md §13): link-fabric semantics, the
// work-stealing quantum pool, and the headline property — a fleet run is
// bit-identical from --threads 1 to --threads N for a fixed seed, including
// the remote-attestation transcripts and the quarantine verdicts.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/link.h"
#include "src/fleet/node.h"
#include "src/fleet/pool.h"
#include "src/fleet/provision.h"
#include "src/isa/assembler.h"
#include "src/mem/layout.h"
#include "src/platform/observe/fleet_trace.h"
#include "src/services/attestation.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {
namespace {

// --- Link fabric ---------------------------------------------------------

TEST(LinkFabricTest, DeliversAfterLatencyInOrder) {
  LinkFabric fabric(1);
  fabric.Connect(0, 1, LinkParams{.latency_cycles = 100});
  ASSERT_TRUE(fabric.Send(0, 1, 50, "a"));
  ASSERT_TRUE(fabric.Send(0, 1, 60, "b"));
  EXPECT_TRUE(fabric.Deliver(1, 100).empty());  // Not yet visible.
  std::vector<FleetMessage> due = fabric.Deliver(1, 200);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].payload, "a");
  EXPECT_EQ(due[1].payload, "b");
  EXPECT_EQ(due[0].deliver_cycle, 150u);
  EXPECT_EQ(fabric.in_flight(), 0u);
}

TEST(LinkFabricTest, UnroutableAndLostMessagesDrop) {
  LinkFabric fabric(1);
  fabric.Connect(0, 1, LinkParams{.loss_ppm = 1'000'000});
  EXPECT_FALSE(fabric.Send(0, 2, 0, "x"));  // No such link.
  EXPECT_FALSE(fabric.Send(0, 1, 0, "y"));  // Certain loss.
  EXPECT_EQ(fabric.stats().dropped, 2u);
  EXPECT_EQ(fabric.in_flight(), 0u);
}

TEST(LinkFabricTest, ImpairmentsAreSeedDeterministic) {
  const LinkParams lossy{.latency_cycles = 10,
                         .loss_ppm = 200'000,
                         .reorder_ppm = 200'000};
  auto run = [&](uint64_t seed) {
    LinkFabric fabric(seed);
    fabric.Connect(0, 1, lossy);
    std::string outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes += fabric.Send(0, 1, static_cast<uint64_t>(i), "m") ? '1' : '0';
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));          // Replayable.
  EXPECT_NE(run(7), run(8));          // Seed actually matters.
  EXPECT_NE(run(7).find('0'), std::string::npos);  // Some losses occurred.

  LinkFabric fabric(7);
  fabric.Connect(0, 1, lossy);
  for (int i = 0; i < 200; ++i) {
    fabric.Send(0, 1, static_cast<uint64_t>(i), "m");
  }
  EXPECT_GT(fabric.stats().reordered, 0u);
}

TEST(LinkFabricTest, CorruptionIsSeededAndIsolatedFromPassiveStreams) {
  const std::string payload = "attestation-report-bytes";
  auto run = [&](uint64_t seed) {
    LinkFabric fabric(seed);
    fabric.Connect(0, 1, LinkParams{.latency_cycles = 10,
                                    .corrupt_ppm = 1'000'000});
    fabric.Send(0, 1, 0, payload);
    std::vector<FleetMessage> due = fabric.Deliver(1, 100);
    EXPECT_EQ(due.size(), 1u);
    EXPECT_EQ(fabric.stats().corrupted, 1u);
    return due.empty() ? std::string() : due[0].payload;
  };
  EXPECT_NE(run(7), payload);  // Bytes actually flipped...
  EXPECT_EQ(run(7), run(7));   // ...at seed-deterministic offsets.
  EXPECT_NE(run(7), run(8));

  // The adversary rolls come from a separate stream: arming corruption must
  // not re-time the passive loss pattern of the same fleet seed.
  auto losses = [&](uint32_t corrupt_ppm) {
    LinkFabric fabric(7);
    fabric.Connect(0, 1, LinkParams{.loss_ppm = 200'000,
                                    .corrupt_ppm = corrupt_ppm});
    std::string outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes += fabric.Send(0, 1, static_cast<uint64_t>(i), "m") ? '1' : '0';
    }
    return outcomes;
  };
  EXPECT_EQ(losses(0), losses(1'000'000));
}

TEST(LinkFabricTest, ReplayRedeliversStaleCapturedFrames) {
  LinkFabric fabric(1);
  fabric.Connect(0, 1, LinkParams{.latency_cycles = 10,
                                  .replay_ppm = 1'000'000});
  fabric.Send(0, 1, 0, "f0");  // Nothing captured yet: no replay possible.
  fabric.Send(0, 1, 1, "f1");
  fabric.Send(0, 1, 2, "f2");
  std::vector<FleetMessage> due = fabric.Deliver(1, 100);
  EXPECT_EQ(fabric.stats().replayed, 2u);
  ASSERT_EQ(due.size(), 5u);  // 3 fresh + 2 stale re-deliveries.
  int stale = 0;
  for (const FleetMessage& m : due) {
    // A stale copy is always of an OLDER frame, never the one being sent.
    stale += (m.payload == "f0" || m.payload == "f1") ? 1 : 0;
  }
  EXPECT_EQ(stale, 2 + 2);  // f0/f1 originals + 2 stale copies.
}

TEST(LinkFabricTest, ReflectionEchoesFramesBackToSender) {
  LinkFabric fabric(1);
  fabric.Connect(0, 1, LinkParams{.latency_cycles = 10,
                                  .reflect_ppm = 1'000'000});
  fabric.Send(0, 1, 0, "challenge");
  std::vector<FleetMessage> forward = fabric.Deliver(1, 100);
  ASSERT_EQ(forward.size(), 1u);  // The real frame still goes through.
  std::vector<FleetMessage> echoed = fabric.Deliver(0, 100);
  ASSERT_EQ(echoed.size(), 1u);   // ...and an echo lands on the sender,
  EXPECT_EQ(echoed[0].payload, "challenge");
  EXPECT_EQ(echoed[0].src, 1);    // masquerading as the destination.
  EXPECT_EQ(echoed[0].dst, 0);
  EXPECT_EQ(fabric.stats().reflected, 1u);

  std::vector<LinkFabric::LinkStatsRow> rows = fabric.PerLinkStats();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].src, 0);
  EXPECT_EQ(rows[0].dst, 1);
  EXPECT_EQ(rows[0].sent, 1u);
  EXPECT_EQ(rows[0].reflected, 1u);
}

TEST(LinkFabricTest, EqualCycleFramesOrderedBySendSequence) {
  // Frames from different links landing at the SAME deliver cycle must pop
  // in global send order (`seq`) — the due-queue's total order. The old
  // scan-and-sort path left equal-cycle order to sort stability; this is
  // the regression guard for warm-boot clones (identical emit cycles) and
  // replay/reflect injections colliding with fresh traffic.
  LinkFabric fabric(1);
  fabric.Connect(0, 2, LinkParams{.latency_cycles = 100});
  fabric.Connect(1, 2, LinkParams{.latency_cycles = 50});
  ASSERT_TRUE(fabric.Send(0, 2, 50, "A"));    // Due at 150.
  ASSERT_TRUE(fabric.Send(1, 2, 100, "B"));   // Due at 150.
  ASSERT_TRUE(fabric.Send(1, 2, 100, "C"));   // Due at 150, same link as B.
  std::vector<FleetMessage> due = fabric.Deliver(2, 150);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].payload, "A");
  EXPECT_EQ(due[1].payload, "B");
  EXPECT_EQ(due[2].payload, "C");
  EXPECT_LT(due[0].seq, due[1].seq);
  EXPECT_LT(due[1].seq, due[2].seq);
  EXPECT_EQ(due[0].deliver_cycle, due[2].deliver_cycle);
}

TEST(LinkFabricTest, InFlightCounterMatchesRecountUnderHostileTraffic) {
  // The O(1) incremental in-flight counter must track the queues exactly
  // through hostile injections: every replay/reflect frame adds one, every
  // popped frame subtracts one, nothing is double- or under-counted.
  LinkFabric fabric(3);
  fabric.Connect(0, 1, LinkParams{.latency_cycles = 100,
                                  .replay_ppm = 1'000'000,
                                  .reflect_ppm = 1'000'000});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fabric.Send(0, 1, static_cast<uint64_t>(i) * 10, "frame"));
  }
  EXPECT_EQ(fabric.in_flight(), fabric.RecountInFlight());
  EXPECT_GT(fabric.in_flight(), 10u);  // Fresh + injected frames.

  // Partial delivery: early frames pop, late ones (and the +1-cycle replay
  // stragglers) stay queued.
  fabric.Deliver(1, 120);
  EXPECT_EQ(fabric.in_flight(), fabric.RecountInFlight());
  fabric.Deliver(0, 120);  // Reflected echoes land on the sender.
  EXPECT_EQ(fabric.in_flight(), fabric.RecountInFlight());

  fabric.Deliver(1, 10'000);
  fabric.Deliver(0, 10'000);
  EXPECT_EQ(fabric.in_flight(), 0u);
  EXPECT_EQ(fabric.RecountInFlight(), 0u);
  const LinkFabric::Stats stats = fabric.stats();
  // Everything that entered a queue came out: fresh survivors + injections.
  EXPECT_EQ(stats.delivered,
            stats.sent - stats.dropped + stats.replayed + stats.reflected);
}

TEST(LinkFabricTest, RingTopologyLinksNeighboursAndVerifier) {
  LinkFabric fabric(1);
  BuildTopologyLinks(&fabric, Topology::kRing, 4, LinkParams{});
  EXPECT_TRUE(fabric.connected(0, 1));
  EXPECT_TRUE(fabric.connected(0, 3));
  EXPECT_FALSE(fabric.connected(0, 2));  // Not a neighbour.
  EXPECT_TRUE(fabric.connected(2, kVerifierPort));
  EXPECT_TRUE(fabric.connected(kVerifierPort, 2));
}

// --- Quantum pool --------------------------------------------------------

TEST(QuantumPoolTest, EveryIndexRunsExactlyOnce) {
  QuantumPool pool(4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) {
    h.store(0);
  }
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(kTasks, [&](int i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 5) << "index " << i;
  }
}

TEST(QuantumPoolTest, GrainedClaimsCoverEveryIndexExactlyOnce) {
  QuantumPool pool(4);
  constexpr int kTasks = 1000;
  // Grain 0 clamps to 1; 997 leaves a ragged final block; 5000 > n makes
  // one participant claim a whole shard at once.
  for (int grain : {0, 1, 3, 64, 997, 5000}) {
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.ParallelFor(
        kTasks, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); },
        grain);
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " grain " << grain;
    }
  }
}

TEST(QuantumPoolTest, SingleThreadRunsInline) {
  QuantumPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int sum = 0;
  pool.ParallelFor(10, [&](int i) { sum += i; });  // Unsynchronized on purpose.
  EXPECT_EQ(sum, 45);
}

// --- Fleet workload mode -------------------------------------------------

// Tiny guest: announce over the UART, publish the GPIO pattern, halt.
constexpr char kChatterGuest[] =
    "start:\n"
    "    li   r1, 0xF0003000\n"
    "    movi r2, 'p'\n"
    "    stw  r2, [r1]\n"
    "    movi r2, 'i'\n"
    "    stw  r2, [r1]\n"
    "    movi r2, 'n'\n"
    "    stw  r2, [r1]\n"
    "    li   r3, 0xF0006000\n"
    "    movi r4, 0xAB\n"
    "    stw  r4, [r3]\n"
    "    halt\n";

void InstallGuest(Fleet* fleet, const std::string& source) {
  Result<AsmOutput> out = Assemble(source, 0x0003'0000);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (int i = 0; i < fleet->num_nodes(); ++i) {
    Platform& platform = fleet->node(i).platform();
    for (const AsmChunk& chunk : out->chunks) {
      ASSERT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
    }
    platform.cpu().Reset(out->symbols.at("start"));
    platform.cpu().set_reg(kRegSp, 0x0004'0000);
    platform.ReleaseThreadAffinity();
  }
}

FleetConfig WorkloadConfig(int threads) {
  FleetConfig config;
  config.nodes = 5;
  config.topology = Topology::kRing;
  config.seed = 42;
  config.threads = threads;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  return config;
}

TEST(FleetWorkloadTest, UartBurstsReachRingNeighbours) {
  Fleet fleet(WorkloadConfig(1));
  InstallGuest(&fleet, kChatterGuest);
  fleet.RunQuanta(4);
  EXPECT_TRUE(fleet.AllHalted());
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    // Both ring neighbours sent one 3-byte burst each.
    EXPECT_EQ(fleet.node(i).rx_bytes(), 6u) << "node " << i;
    EXPECT_EQ(fleet.node(i).tx_bytes(), 3u) << "node " << i;
    // The verifier heard every node's chatter too.
    EXPECT_EQ(fleet.Rx(i, Channel::kAttest), "pin") << "node " << i;
  }
}

TEST(FleetWorkloadTest, GpioBridgedAroundRing) {
  Fleet fleet(WorkloadConfig(1));
  InstallGuest(&fleet, kChatterGuest);
  fleet.RunQuanta(2);
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    uint32_t in = 0;
    ASSERT_TRUE(fleet.node(i).platform().bus().HostReadWord(
        kGpioBase + kGpioRegIn, &in));
    EXPECT_EQ(in, 0xABu) << "node " << i;
  }
}

TEST(FleetWorkloadTest, DigestIdenticalAcrossThreadCounts) {
  std::vector<Sha256Digest> node_digests;
  Sha256Digest fleet_digest{};
  {
    Fleet fleet(WorkloadConfig(1));
    InstallGuest(&fleet, kChatterGuest);
    fleet.RunQuanta(6);
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      node_digests.push_back(fleet.node(i).StateDigest());
    }
    fleet_digest = fleet.FleetDigest();
  }
  Fleet fleet(WorkloadConfig(4));
  InstallGuest(&fleet, kChatterGuest);
  fleet.RunQuanta(6);
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    EXPECT_EQ(fleet.node(i).StateDigest(),
              node_digests[static_cast<size_t>(i)])
        << "node " << i;
  }
  EXPECT_EQ(fleet.FleetDigest(), fleet_digest);
}

TEST(FleetWorkloadTest, SameCycleCollisionsIdenticalAcrossThreadCounts) {
  // Every node runs the identical guest, so all five emit at exactly the
  // same cycles: each node's due-queue holds same-cycle frames from both
  // ring neighbours, and the armed reflect/replay adversary injects more
  // frames at colliding cycles. The equal-cycle seq tiebreak must keep the
  // whole run bit-identical across host thread counts.
  auto run = [](int threads) {
    FleetConfig config = WorkloadConfig(threads);
    config.link.reflect_ppm = 500'000;
    config.link.replay_ppm = 500'000;
    Fleet fleet(config);
    InstallGuest(&fleet, kChatterGuest);
    fleet.RunQuanta(8);
    std::string verifier_streams;
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      verifier_streams += fleet.Rx(i, Channel::kAttest);
      verifier_streams += '|';
    }
    return std::make_pair(fleet.FleetDigest(), verifier_streams);
  };
  const auto one = run(1);
  const auto many = run(4);
  EXPECT_EQ(one.first, many.first);
  EXPECT_EQ(one.second, many.second);
}

// --- TX burst batching ---------------------------------------------------

// Trickle guest: 26 UART bytes a few cycles apart, so with a small quantum
// the burst grows across several consecutive quanta — the shape that used
// to flood the fabric with tiny frames.
constexpr char kTrickleGuest[] =
    "start:\n"
    "    li   r1, 0xF0003000\n"
    "    movi r2, 'a'\n"
    "    movi r4, 0\n"
    "    movi r5, 26\n"
    "loop:\n"
    "    stw  r2, [r1]\n"
    "    addi r2, r2, 1\n"
    "    addi r5, r5, -1\n"
    "    bne  r5, r4, loop\n"
    "    halt\n";

FleetConfig TrickleConfig(int threads, uint32_t batch_quanta) {
  FleetConfig config;
  config.nodes = 2;
  config.topology = Topology::kStar;
  config.seed = 11;
  config.threads = threads;
  config.quantum = 64;  // Small quantum: the 26-byte emission spans several.
  config.harvest_batch_quanta = batch_quanta;
  config.link.latency_cycles = 100;
  return config;
}

TEST(FleetBatchingTest, HorizonCoalescesCrossQuantumTrickle) {
  auto frames_sent = [](uint32_t batch_quanta, std::string* rx) {
    Fleet fleet(TrickleConfig(1, batch_quanta));
    InstallGuest(&fleet, kTrickleGuest);
    fleet.RunQuanta(64);
    EXPECT_TRUE(fleet.AllHalted());
    EXPECT_EQ(fleet.fabric().in_flight(), 0u);
    *rx = fleet.Rx(0, Channel::kAttest);
    return fleet.fabric().stats().sent;
  };
  std::string rx_unbatched;
  std::string rx_batched;
  const uint64_t unbatched = frames_sent(1, &rx_unbatched);
  const uint64_t batched = frames_sent(8, &rx_batched);
  // Same bytes on the wire, strictly fewer frames carrying them.
  EXPECT_EQ(rx_unbatched, "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(rx_batched, rx_unbatched);
  EXPECT_LT(batched, unbatched);
  EXPECT_GT(unbatched, 4u);  // The trickle really did span several quanta.
}

TEST(FleetBatchingTest, BatchedDigestsIdenticalAcrossThreadCounts) {
  // The flush rule is a pure function of simulated state, so batching must
  // not cost any cross-thread determinism.
  auto run = [](int threads) {
    Fleet fleet(TrickleConfig(threads, 4));
    InstallGuest(&fleet, kTrickleGuest);
    fleet.RunQuanta(64);
    return std::make_pair(fleet.FleetDigest(),
                          fleet.Rx(0, Channel::kAttest));
  };
  const auto one = run(1);
  const auto many = run(4);
  EXPECT_EQ(one.first, many.first);
  EXPECT_EQ(one.second, many.second);
}

TEST(FleetBatchingTest, HaltFlushesHeldBurst) {
  // A burst held back by the horizon must still drain when the guest halts
  // (no further bytes can ever arrive) — nothing may stay pending forever.
  Fleet fleet(TrickleConfig(1, 1'000));  // Horizon far beyond the run.
  InstallGuest(&fleet, kTrickleGuest);
  fleet.RunQuanta(64);
  EXPECT_TRUE(fleet.AllHalted());
  EXPECT_EQ(fleet.node(0).pending_tx_bytes(), 0u);
  EXPECT_EQ(fleet.Rx(0, Channel::kAttest), "abcdefghijklmnopqrstuvwxyz");
}

// --- Device ticking under observation ------------------------------------

// Timer at a 40-cycle auto-reload period, first left to expire several times
// with interrupts masked (only a tick after every instruction stamps those
// expiries at their own cycles), then taken as interrupts until the eighth.
constexpr char kMaskedTimerGuest[] =
    "start:\n"
    "    li   r1, 0xF0002000\n"
    "    movi r2, 40\n"
    "    stw  r2, [r1 + 4]\n"
    "    la   r2, isr\n"
    "    stw  r2, [r1 + 12]\n"
    "    movi r2, 7\n"
    "    stw  r2, [r1 + 0]\n"
    "    movi r3, 0\n"
    "    movi r4, 100\n"
    "masked:\n"
    "    addi r3, r3, 1\n"
    "    addi r5, r5, 3\n"
    "    bne  r3, r4, masked\n"
    "    sti\n"
    "idle:\n"
    "    jmp  idle\n"
    "isr:\n"
    "    addi r6, r6, 1\n"
    "    movi r7, 8\n"
    "    beq  r6, r7, done\n"
    "    addi sp, sp, 4\n"
    "    iret\n"
    "done:\n"
    "    halt\n";

class IrqRaiseRecorder : public EventSink {
 public:
  void OnIrqRaise(const IrqRaiseEvent& event) override {
    cycles.push_back(event.cycle);
  }
  std::vector<uint64_t> cycles;
};

struct TracedNodeRun {
  bool lazy_before_trace = false;
  bool lazy_with_trace = false;
  std::vector<uint64_t> irq_cycles;
  std::string trace_json;
  Sha256Digest digest{};
};

// Runs the guest on one fleet node with a ChromeTraceWriter attached the way
// `tlfleetd --trace-json` attaches it, in fleet-sized quanta.
TracedNodeRun RunTracedNode(bool fast_path) {
  PlatformConfig config;
  config.with_mpu = false;
  config.fast_path = fast_path;
  FleetNode node(0, /*fleet_seed=*/42, config);
  Platform& platform = node.platform();
  TracedNodeRun run;
  run.lazy_before_trace = platform.bus().lazy_ticks();
  Result<AsmOutput> out = Assemble(kMaskedTimerGuest, 0x0003'0000);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  for (const AsmChunk& chunk : out->chunks) {
    EXPECT_TRUE(platform.bus().HostWriteBytes(chunk.base, chunk.bytes));
  }
  platform.cpu().Reset(out->symbols.at("start"));
  platform.cpu().set_reg(kRegSp, 0x0004'0000);

  FleetTraceAggregator aggregator;
  ChromeTraceWriter* writer = aggregator.AddNode(0);
  writer->AddLane("code", 0x0003'0000, 0x0003'1000);
  IrqRaiseRecorder recorder;
  platform.AddEventSink(writer);
  platform.AddEventSink(&recorder);
  run.lazy_with_trace = platform.bus().lazy_ticks();
  for (uint64_t target = 500; target <= 20'000 && !platform.cpu().halted();
       target += 500) {
    node.RunQuantum(target);
  }
  EXPECT_TRUE(platform.cpu().halted());
  run.irq_cycles = recorder.cycles;
  run.trace_json = aggregator.Json();
  run.digest = node.StateDigest();
  platform.RemoveEventSink(&recorder);
  platform.RemoveEventSink(writer);
  return run;
}

TEST(FleetNodeTickTest, TraceWriterKeepsEagerTicksAndExactIrqStamps) {
  const TracedNodeRun fast = RunTracedNode(/*fast_path=*/true);
  // The node's own TX capture consumes no IrqRaiseEvents: ticks stay lazy
  // until the trace writer, which does, is attached.
  EXPECT_TRUE(fast.lazy_before_trace);
  EXPECT_FALSE(fast.lazy_with_trace);
  // The reference never ticks lazily; every stamp, the trace document and
  // the node state must match it exactly.
  const TracedNodeRun ref = RunTracedNode(/*fast_path=*/false);
  EXPECT_FALSE(ref.lazy_before_trace);
  EXPECT_EQ(fast.irq_cycles, ref.irq_cycles);
  EXPECT_EQ(fast.trace_json, ref.trace_json);
  EXPECT_EQ(fast.digest, ref.digest);
  // Seven expiries while masked, one per 40 cycles, each at its own cycle.
  ASSERT_GE(fast.irq_cycles.size(), 8u);
  for (size_t i = 1; i < 7; ++i) {
    EXPECT_EQ(fast.irq_cycles[i] - fast.irq_cycles[i - 1], 40u) << i;
  }
}

// --- Idle nodes sleep -----------------------------------------------------

TEST(FleetIdleTest, IdleNodesTakeOnlyTimerInterrupts) {
  // Guard against the idle yield storm: the FW and attestation trustlets
  // wait in `wfi`, so an idle node enters the secure engine once per nanOS
  // tick (Sec. 5.4's 42 cycles each) and never through an SWI yield.
  FleetConfig config;
  config.nodes = 4;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  ASSERT_TRUE(ProvisionAttestationFleet(&fleet, prov).ok());
  std::vector<CpuStats> before;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    before.push_back(fleet.node(i).platform().cpu().stats());
  }
  constexpr uint64_t kQuanta = 32;
  fleet.RunQuanta(kQuanta);
  const uint64_t ticks = kQuanta * config.quantum / prov.timer_period;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    const CpuStats& after = fleet.node(i).platform().cpu().stats();
    const CpuStats& b = before[static_cast<size_t>(i)];
    const uint64_t irqs = after.interrupts - b.interrupts;
    EXPECT_GE(irqs + 1, ticks) << "node " << i;
    EXPECT_EQ(after.trustlet_interrupts - b.trustlet_interrupts, irqs)
        << "node " << i;
    EXPECT_EQ(after.exceptions - b.exceptions, irqs) << "node " << i;
    // Asleep for most of the window.
    EXPECT_GT(after.sleep_cycles - b.sleep_cycles,
              kQuanta * config.quantum / 2)
        << "node " << i;
  }
}

// The host cost of an admitted node's idle ticks (DESIGN.md §15, "The yield
// round trip"): each tick is one secure-engine round trip, and these exact
// host counters fail when a change puts its accesses back on the bus (the
// differential harness compares architectural state only). Before the
// engine's OS-stack pushes and iret pops used data windows and lone
// instructions pinned their fetch, the same run made 1,010 EA-MPU checks;
// every other counter below was the same. Before the wfi's tombstone pinned
// its fetch too, it made 160 checks (110 of them wfi fetches) and 100
// EA-MPU subject-memo misses. Each remaining check is one rule evaluation
// of a data check decided per coverage interval.
TEST(FleetIdleTest, IdleTickCountersArePinned) {
  FleetConfig config;
  config.nodes = 1;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());

  Platform& platform = fleet.node(0).platform();
  const FastPathStats before = platform.fast_path_stats();
  const CpuStats cpu_before = platform.cpu().stats();
  constexpr uint64_t kQuanta = 10;
  fleet.RunQuanta(kQuanta);
  const FastPathStats after = platform.fast_path_stats();
  const CpuStats& cpu = platform.cpu().stats();

  const uint64_t irqs = cpu.interrupts - cpu_before.interrupts;
  EXPECT_EQ(irqs, kQuanta * config.quantum / prov.timer_period);
  EXPECT_EQ(cpu.trustlet_interrupts - cpu_before.trustlet_interrupts, irqs);
  EXPECT_EQ(cpu.instructions - cpu_before.instructions, 5'700u);
  EXPECT_EQ(after.mpu.checks - before.mpu.checks, 50u);
  EXPECT_EQ(after.mpu.fetch_misses - before.mpu.fetch_misses, 0u);
  EXPECT_EQ(after.mpu.decision_misses - before.mpu.decision_misses, 50u);
  EXPECT_EQ(after.mpu.subject_misses - before.mpu.subject_misses, 0u);
  EXPECT_EQ(after.bus.route_misses - before.bus.route_misses, 100u);
  EXPECT_EQ(after.data_window_hits - before.data_window_hits, 2'500u);
  EXPECT_EQ(after.data_window_misses - before.data_window_misses, 50u);
  EXPECT_EQ(after.decode_hits - before.decode_hits, 5'710u);
  EXPECT_EQ(after.decode_misses - before.decode_misses, 0u);
  EXPECT_EQ(after.fusion_groups - before.fusion_groups, 1'450u);
  EXPECT_EQ(after.fusion_retired - before.fusion_retired, 5'150u);
  EXPECT_EQ(after.fusion_builds - before.fusion_builds, 0u);
  EXPECT_EQ(after.fusion_invalidations - before.fusion_invalidations, 0u);
}

// --- The code cache's pool (DESIGN.md §10) --------------------------------
// A node's code cache holds an entry only for the sets its code has looked
// up, so its host memory is the code it runs, not all 512 sets.

// An admitted idle attestation node (warm copy, seed 42) holds the entries
// of the code admission ran, the idle tick's among them: 75 entries, 9.4 KiB
// of host memory instead of the 64 KiB of all 512 sets.
constexpr uint32_t kAdmittedNodeCodeEntries = 75;

TEST(CodePoolTest, AdmittedIdleNodeHoldsThePinnedEntries) {
  FleetConfig config;
  config.nodes = 1;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());

  Platform& platform = fleet.node(0).platform();
  EXPECT_EQ(platform.cpu().code_entries(), kAdmittedNodeCodeEntries);
  EXPECT_EQ(platform.fast_path_stats().code_entries, kAdmittedNodeCodeEntries);
  const uint64_t ticks_before = platform.cpu().stats().interrupts;
  fleet.RunQuanta(10);
  EXPECT_EQ(platform.cpu().stats().interrupts - ticks_before, 100u);
  // The idle tick runs code admission already ran.
  EXPECT_EQ(platform.cpu().code_entries(), kAdmittedNodeCodeEntries);
}

// Provisioning runs no guest code, so no node holds an entry before
// admission, the warm copies (CloneNode) included. A snapshot restore
// empties the pool, and 100 idle ticks then rebuild the 32 entries of the
// tick's code, with the same host counters after every restore. The
// 512-entry array the pool replaced, which dropped every decode on a
// restore too, gave these counters on the same run, except the two that
// pinning the wfi's fetch moved: 30 builds (no wfi tombstone) and 233
// EA-MPU checks.
TEST(CodePoolTest, CopiesAndRestoresStartEmptyAndRebuildTheSameEntries) {
  FleetConfig config;
  config.nodes = 2;
  config.seed = 42;
  Fleet fleet(config);
  FleetProvisionConfig prov;
  prov.warm_boot = true;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();
  Platform& source = fleet.node(0).platform();
  Platform& copy = fleet.node(1).platform();
  EXPECT_EQ(source.cpu().code_entries(), 0u);
  EXPECT_EQ(copy.cpu().code_entries(), 0u);
  FleetController controller(&fleet, std::move(*provisions), FleetdPolicy{});
  ASSERT_TRUE(controller.RunAdmission().ok());
  EXPECT_EQ(copy.cpu().code_entries(), kAdmittedNodeCodeEntries);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "restore " << round);
    Result<std::vector<uint8_t>> saved = SavePlatform(copy);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    ASSERT_TRUE(RestorePlatform(&copy, *saved).ok());
    copy.ReleaseThreadAffinity();
    EXPECT_EQ(copy.cpu().code_entries(), 0u);
    EXPECT_EQ(copy.fast_path_stats().code_entries, 0u);

    const FastPathStats before = copy.fast_path_stats();
    fleet.RunQuanta(10);
    const FastPathStats after = copy.fast_path_stats();
    EXPECT_EQ(copy.cpu().code_entries(), 32u);
    EXPECT_EQ(source.cpu().code_entries(), kAdmittedNodeCodeEntries);
    EXPECT_EQ(after.decode_hits - before.decode_hits, 5'678u);
    EXPECT_EQ(after.decode_misses - before.decode_misses, 32u);
    EXPECT_EQ(after.fusion_groups - before.fusion_groups, 1'450u);
    EXPECT_EQ(after.fusion_retired - before.fusion_retired, 5'150u);
    EXPECT_EQ(after.fusion_builds - before.fusion_builds, 32u);
    EXPECT_EQ(after.fusion_invalidations - before.fusion_invalidations, 0u);
    EXPECT_EQ(after.mpu.checks - before.mpu.checks, 125u);
  }
}

// --- Fleet-wide remote attestation ---------------------------------------

struct AttestRun {
  std::vector<AttestNodeState> states;
  std::vector<bool> tampered;
  std::string transcript;
  Sha256Digest digest{};
  uint64_t quanta = 0;
};

AttestRun RunAttestedFleet(int nodes, int threads, int tamper,
                           uint32_t loss_ppm = 0, uint64_t seed = 7) {
  FleetConfig config;
  config.nodes = nodes;
  config.topology = Topology::kStar;
  config.seed = seed;
  config.threads = threads;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  config.link.loss_ppm = loss_ppm;
  Fleet fleet(config);

  FleetProvisionConfig prov;
  prov.tamper_count = tamper;
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, prov);
  EXPECT_TRUE(provisions.ok()) << provisions.status().ToString();

  AttestRun run;
  FleetAttestor attestor(&fleet, *provisions, AttestPolicy{});
  attestor.Begin();
  for (uint64_t q = 0; q < 600 && !attestor.Done(); ++q) {
    fleet.RunQuantum();
    attestor.OnQuantumBoundary();
  }
  EXPECT_TRUE(attestor.Done()) << "attestation unresolved";
  for (int i = 0; i < nodes; ++i) {
    run.states.push_back(attestor.state(i));
    run.tampered.push_back((*provisions)[static_cast<size_t>(i)].tampered);
  }
  run.transcript = attestor.transcript();
  run.digest = fleet.FleetDigest();
  run.quanta = fleet.quanta_run();
  return run;
}

TEST(FleetAttestTest, HealthyFleetFullyVerified) {
  AttestRun run = RunAttestedFleet(/*nodes=*/4, /*threads=*/1, /*tamper=*/0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run.states[static_cast<size_t>(i)], AttestNodeState::kVerified)
        << "node " << i;
  }
  EXPECT_NE(run.transcript.find("verified"), std::string::npos);
  EXPECT_EQ(run.transcript.find("quarantined"), std::string::npos);
}

TEST(FleetAttestTest, TamperedNodesQuarantinedHealthyVerified) {
  AttestRun run = RunAttestedFleet(/*nodes=*/6, /*threads=*/1, /*tamper=*/2);
  int quarantined = 0;
  for (int i = 0; i < 6; ++i) {
    const AttestNodeState want = run.tampered[static_cast<size_t>(i)]
                                     ? AttestNodeState::kQuarantined
                                     : AttestNodeState::kVerified;
    EXPECT_EQ(run.states[static_cast<size_t>(i)], want) << "node " << i;
    quarantined += run.tampered[static_cast<size_t>(i)] ? 1 : 0;
  }
  EXPECT_EQ(quarantined, 2);
  // Tampered nodes still answered — their reports just never matched.
  EXPECT_NE(run.transcript.find("report-mismatch"), std::string::npos);
}

TEST(FleetAttestTest, TranscriptAndDigestIdenticalAcrossThreadCounts) {
  AttestRun one = RunAttestedFleet(/*nodes=*/6, /*threads=*/1, /*tamper=*/2);
  AttestRun many = RunAttestedFleet(/*nodes=*/6, /*threads=*/4, /*tamper=*/2);
  EXPECT_EQ(one.transcript, many.transcript);
  EXPECT_EQ(one.digest, many.digest);
  EXPECT_EQ(one.states, many.states);
  EXPECT_EQ(one.quanta, many.quanta);
}

TEST(FleetAttestTest, MismatchFloodIsBoundedAndLogged) {
  // An adversary shovels forged reports at the verifier. The verifier must
  // (a) count every forgery, (b) log only the first kAttestMaxRejectLogs
  // of them plus one explicit suppression line — no silent truncation, no
  // unbounded transcript — and (c) reclaim the consumed RX bytes so the
  // stream buffer does not grow with the flood.
  FleetConfig config;
  config.nodes = 1;
  config.topology = Topology::kStar;
  config.seed = 7;
  config.quantum = 20'000;
  config.link.latency_cycles = 1'000;
  Fleet fleet(config);
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(&fleet, FleetProvisionConfig{});
  ASSERT_TRUE(provisions.ok()) << provisions.status().ToString();

  AttestPolicy policy;
  FleetAttestor attestor(&fleet, *provisions, policy);
  attestor.Begin();
  constexpr int kForged = 40;
  std::string forged(1, 'R');
  forged += static_cast<char>(kAttestStatusOk);
  forged += std::string(32, 'x');    // Report matching no challenge.
  for (int i = 0; i < kForged; ++i) {
    ASSERT_TRUE(fleet.fabric().Send(0, kVerifierPort, 0, forged));
  }
  for (uint64_t q = 0; q < 600 && !attestor.Done(); ++q) {
    fleet.RunQuantum();
    attestor.OnQuantumBoundary();
  }
  ASSERT_TRUE(attestor.Done());
  // The genuine report still verifies through the flood.
  EXPECT_EQ(attestor.state(0), AttestNodeState::kVerified);
  EXPECT_EQ(attestor.mismatches(0), static_cast<uint64_t>(kForged));

  const std::string& transcript = attestor.transcript();
  size_t mismatch_lines = 0;
  for (size_t at = transcript.find("report-mismatch");
       at != std::string::npos;
       at = transcript.find("report-mismatch", at + 1)) {
    ++mismatch_lines;
  }
  EXPECT_EQ(mismatch_lines, static_cast<size_t>(kAttestMaxRejectLogs));
  EXPECT_NE(transcript.find("reject-log cap reached"), std::string::npos);
  EXPECT_NE(transcript.find("mismatches=40"), std::string::npos);
  // Consumed stream prefix was handed back: the buffer holds at most the
  // unconsumed tail, not the whole flood.
  EXPECT_LT(fleet.Rx(0, Channel::kAttest).size(), forged.size() * 2);
}

TEST(FleetAttestTest, RetriesRideOutLinkLoss) {
  // 15% per-message loss on every link: some challenges or responses die,
  // but timeout + backoff re-challenges until every node verifies.
  AttestRun run = RunAttestedFleet(/*nodes=*/4, /*threads=*/1, /*tamper=*/0,
                                   /*loss_ppm=*/150'000);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run.states[static_cast<size_t>(i)], AttestNodeState::kVerified)
        << "node " << i;
  }
}

}  // namespace
}  // namespace trustlite
