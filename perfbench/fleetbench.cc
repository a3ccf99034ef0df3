// Copyright 2026 The TrustLite Reproduction Authors.
//
// fleetbench — the measuring half of the fleet benchmark (perfbench/README.md;
// perfbench/run.py builds and drives it).
//
//   fleetbench --workload session|rollout|compute --seed N --seconds S
//              [--trace 0|1] [--trace-out FILE] [--nodes N] [--tamper K]
//
// Repeats one workload, each time on a fresh fleet built from the same seed,
// until S seconds have passed and at least kMinReps repetitions after the
// untimed warm-up one ran. Every repetition prints one `rep {...}` JSON line:
// set-up and body host time, the workload's phase samples, deterministic work
// counters read from the public stats accessors, the output checks and the
// closing fleet digest. A leading `host {...}` line records the facts that
// explain cross-host differences; a closing `done {...}` line carries the
// process's peak RSS. The measuring thread hops between the CPUs it may use
// (StartCpuHops).
//
// The workloads drive the library only through the public calls that
// tools/tlfleetd.cc, tools/tlfleet.cc and bench/bench_fleet.cc make. With
// --trace 1, repetitions alternate untraced and traced. A traced one records
// a span (name, start, end, parent span, repetition) around every call into
// a layer's public function, keeps the spans in memory and reports each span
// name's self time; --trace-out writes every span as a Chrome trace-event
// file when the process ends.
//
// --nodes and --tamper exist for perfbench/smoke_test.py: a tiny fleet, and K
// sabotaged nodes that the output checks must report.

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_engine.h"
#include "src/fleet/attest.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/isa/assembler.h"
#include "src/loader/system_image.h"
#include "src/os/nanos.h"
#include "src/trustlet/builder.h"
#include "src/update/fw_container.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace trustlite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
// Set-ups timed per untraced process, at least: the timed repetitions' own,
// then set-up-only repetitions. The untimed warm-up repetition pays the
// process's first-touch page faults.
constexpr int kSetupSamples = 11;
constexpr uint64_t kQuantum = 20'000;
constexpr uint32_t kLinkLatency = 1'000;
// Every workload runs on one executor thread. More threads put the
// QuantumPool's per-quantum worker wake-ups on the critical path: on a 4-vCPU
// KVM guest, `compute` on two threads spread 17-28% in wall time between
// runs, against about 6% on one.
constexpr int kExecutorThreads = 1;
// Quanta a verifier-driven phase may take before it counts as failed
// (tlfleetd's --phase-quanta default).
constexpr uint64_t kPhaseQuanta = 4'000;

// session: `tlfleetd run --warm-boot --nodes 16 --epochs 3 --config k=v
// --scale-up 4`. Every node runs the same idle poll-and-yield loop, so a
// smaller fleet keeps the per-node mix and fits about 20 repetitions into a
// run instead of 4; with 64 nodes a 7-second repetition made the median of
// a run swing with the host's load.
constexpr int kSessionNodes = 16;
constexpr int kSessionEpochs = 3;
constexpr int kSessionClones = 4;
// rollout: BM_UpdateCampaign/256/10 plus the admission round and the closing
// digest it leaves untimed.
constexpr int kRolloutNodes = 256;
constexpr uint32_t kRolloutPayloadBytes = 1024;
constexpr int kRolloutCanaryPct = 10;
// compute: BM_PreemptiveSystem's image (nanOS + two trustlets) on every node.
constexpr int kComputeNodes = 64;
constexpr int kComputeBatches = 10;
constexpr uint64_t kComputeBatchQuanta = 10;
constexpr uint32_t kComputeCode[2] = {0x11000, 0x13000};
constexpr uint32_t kComputeData[2] = {0x12000, 0x14000};

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr char kCompiler[] = "gcc " __VERSION__;
#else
constexpr char kCompiler[] = "unknown";
#endif

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  int nodes = 0;  // 0 until Main resolves the workload's own fleet size.
  int tamper = 0;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "fleetbench: %s\n", message.c_str());
  std::exit(1);
}

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// --- Spans ---------------------------------------------------------------

// In-memory span recorder. The benchmark opens spans on one thread in strict
// nesting, so a span's children tile part of it and its self time is its
// duration minus theirs.
class SpanTrace {
 public:
  // Records the spans of repetition `rep` when `enabled`.
  void BeginRep(int rep, bool enabled) {
    rep_ = rep;
    enabled_ = enabled;
  }
  void EndRep() { enabled_ = false; }

  // Returns the span's index, or -1 when not recording.
  int Open(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{name, Clock::now(), {}, parent, rep_});
    return open_.back();
  }

  void Close(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end = Clock::now();
    open_.pop_back();
  }

  // Self seconds per span name in repetition `rep`.
  std::map<std::string, double> SelfSeconds(int rep) const {
    std::map<std::string, double> self;
    for (const Span& span : spans_) {
      if (span.rep != rep) {
        continue;
      }
      const double duration = Seconds(span.start, span.end);
      self[span.name] += duration;
      if (span.parent >= 0) {
        self[spans_[static_cast<size_t>(span.parent)].name] -= duration;
      }
    }
    return self;
  }

  // Chrome trace-event JSON: one complete event per span, one track per
  // repetition; args carry the span id, its parent and the repetition.
  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    auto micros = [](Clock::time_point from, Clock::time_point to) {
      return JsonNumber(
          std::chrono::duration<double, std::micro>(to - from).count());
    };
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << JsonString(span.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.rep
          << ", \"ts\": " << micros(origin, span.start)
          << ", \"dur\": " << micros(span.start, span.end)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
          << ", \"rep\": " << span.rep << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int rep;
  };

  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_ = 0;
  bool enabled_ = false;
};

SpanTrace& Spans() {
  static SpanTrace spans;
  return spans;
}

// A span around one call into a layer; costs one branch when not tracing.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(Spans().Open(name)) {}
  ~ScopedSpan() { Spans().Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// --- Counters and checks -------------------------------------------------

// Per-node work counters from the public stats accessors. The first
// kArchCounters are architectural: they travel with a snapshot
// (Cpu::ArchState), so a clone starts with its source's values. The rest are
// host telemetry, which a clone's fresh Platform starts at zero.
constexpr const char* kNodeCounterNames[] = {
    "cycles", "insn", "exceptions", "irqs", "trustlet_exc",
    "decode_hits", "decode_misses", "fusion_builds", "fusion_retired",
    "window_hits", "window_misses", "mpu_checks", "mpu_subject_misses",
    "mpu_decision_misses", "mpu_fetch_misses", "bus_route_misses"};
constexpr size_t kArchCounters = 5;
using NodeCounters = std::array<uint64_t, std::size(kNodeCounterNames)>;

NodeCounters ReadNode(FleetNode& node) {
  Platform& platform = node.platform();
  const CpuStats& cpu = platform.cpu().stats();
  const FastPathStats fast = platform.fast_path_stats();
  return {platform.cpu().cycles(), cpu.instructions,
          cpu.exceptions,          cpu.interrupts,
          cpu.trustlet_interrupts, fast.decode_hits,
          fast.decode_misses,      fast.fusion_builds,
          fast.fusion_retired,     fast.data_window_hits,
          fast.data_window_misses, fast.mpu.checks,
          fast.mpu.subject_misses, fast.mpu.decision_misses,
          fast.mpu.fetch_misses,   fast.bus.route_misses};
}

std::vector<NodeCounters> ReadFleet(Fleet& fleet) {
  std::vector<NodeCounters> counters;
  counters.reserve(static_cast<size_t>(fleet.num_nodes()));
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    counters.push_back(ReadNode(fleet.node(i)));
  }
  return counters;
}

// The counters a node cloned from `source` starts with.
NodeCounters CloneBase(const NodeCounters& source) {
  NodeCounters base{};
  std::copy_n(source.begin(), kArchCounters, base.begin());
  return base;
}

// One repetition's measurements and output checks.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> phase_s;  // Epochs, the campaign, or quanta batches.
  uint64_t sim_cycles = 0;      // Fleet::now() advance over the body.
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  std::vector<std::string> failures;  // The first few, for the log.
  std::map<std::string, uint64_t> counters;
  std::string digest;

  // One node-level operation.
  void Check(bool ok, const char* what, int node) {
    ++ops;
    if (!ok) {
      Fail("node " + std::to_string(node) + ": " + what);
    }
  }
  void Fail(const std::string& what) {
    ++failed_ops;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
  void CheckStatus(const Status& status, const char* phase) {
    if (!status.ok()) {
      Fail(std::string(phase) + ": " + status.ToString());
    }
  }
};

// Fleet state when the timed body starts.
struct BodyStart {
  explicit BodyStart(Fleet& fleet)
      : now(fleet.now()),
        quanta(fleet.quanta_run()),
        link(fleet.fabric().stats()),
        nodes(ReadFleet(fleet)) {}

  uint64_t now;
  uint64_t quanta;
  LinkFabric::Stats link;
  std::vector<NodeCounters> nodes;
};

// Fills the repetition's sim_cycles and counter deltas and checks that no
// node halted or trapped. `base[i]` holds the counters node i started the
// body with; nodes past its end start from zero.
void FinishRep(Fleet& fleet, const BodyStart& start,
               const std::vector<NodeCounters>& base, Rep* rep) {
  rep->sim_cycles = fleet.now() - start.now;
  const std::vector<NodeCounters> end = ReadFleet(fleet);
  for (size_t c = 0; c < std::size(kNodeCounterNames); ++c) {
    uint64_t total = 0;
    for (size_t i = 0; i < end.size(); ++i) {
      total += end[i][c] - (i < base.size() ? base[i][c] : 0);
    }
    rep->counters[kNodeCounterNames[c]] = total;
  }
  const LinkFabric::Stats link = fleet.fabric().stats();
  rep->counters["quanta"] = fleet.quanta_run() - start.quanta;
  rep->counters["link_frames"] = link.sent - start.link.sent;
  rep->counters["link_bytes"] = link.payload_bytes - start.link.payload_bytes;
  rep->counters["link_dropped"] = link.dropped - start.link.dropped;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    const Cpu& cpu = fleet.node(i).platform().cpu();
    if (cpu.halted()) {
      rep->Fail("node " + std::to_string(i) + ": halted" +
                (cpu.trap().valid ? std::string(" on a trap: ") +
                                        cpu.trap().reason
                                  : std::string()));
    }
  }
}

std::unique_ptr<Fleet> BuildFleet(uint64_t seed, int nodes) {
  ScopedSpan span("fleet.construct");
  FleetConfig config;
  config.nodes = nodes;
  config.topology = Topology::kStar;
  config.seed = seed;
  config.threads = kExecutorThreads;
  config.quantum = kQuantum;
  config.link.latency_cycles = kLinkLatency;
  return std::make_unique<Fleet>(config);
}

std::vector<NodeProvision> Provision(Fleet* fleet,
                                     const FleetProvisionConfig& config) {
  ScopedSpan span("fleet.provision");
  Result<std::vector<NodeProvision>> provisions =
      ProvisionAttestationFleet(fleet, config);
  if (!provisions.ok()) {
    Die("provisioning failed: " + provisions.status().ToString());
  }
  return std::move(*provisions);
}

Sha256Digest Digest(const Fleet& fleet) {
  ScopedSpan span("fleet.digest");
  return fleet.FleetDigest();
}

// Re-challenges sent to `nodes` in their latest attestation round (a round's
// first challenge to a node is not a retry).
uint64_t Retries(const FleetAttestor& attestor, const std::vector<int>& nodes) {
  uint64_t retries = 0;
  for (const int node : nodes) {
    retries += static_cast<uint64_t>(std::max(attestor.attempts(node), 1) - 1);
  }
  return retries;
}

std::vector<int> AllNodes(int count) {
  std::vector<int> nodes(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    nodes[static_cast<size_t>(i)] = i;
  }
  return nodes;
}

// --- session ---------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>> kConfigEntries = {
    {"k", "v"}};

// Admitted, with a fresh verified report after global cycle `since`.
bool Verified(const FleetController& controller, int node, uint64_t since) {
  const NodeHealth& health = controller.health(node);
  return health.roster == RosterState::kAdmitted &&
         health.last_verified_cycle > since;
}

Sha256Digest ConfigRegion(FleetNode& node) {
  std::vector<uint8_t> region;
  node.platform().bus().HostReadBytes(kNodeConfigRegionAddr,
                                      kNodeConfigRegionSize, &region);
  return Sha256Hash(region);
}

// The tlfleetd lifecycle, phase by phase as tools/tlfleetd.cc drives it.
Rep RunSession(const Options& opt, bool setup_only) {
  const int nodes = opt.nodes;
  Rep rep;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FleetController> controller;
  const Clock::time_point setup_start = Clock::now();
  {
    ScopedSpan span("setup");
    fleet = BuildFleet(opt.seed, nodes);
    FleetProvisionConfig prov;
    prov.warm_boot = true;
    prov.tamper_count = opt.tamper;
    controller = std::make_unique<FleetController>(
        fleet.get(), Provision(fleet.get(), prov), FleetdPolicy{});
  }
  rep.setup_s = Seconds(setup_start, Clock::now());
  if (setup_only) {
    return rep;
  }

  const BodyStart start(*fleet);
  std::vector<NodeCounters> base = start.nodes;
  const FleetAttestor& attestor = controller->attestor();
  uint64_t retries = 0;
  Sha256Digest digest{};
  const Clock::time_point body_start = Clock::now();
  {
    ScopedSpan body("body");
    Status status;
    {
      ScopedSpan span("fleet.control.admission");
      status = controller->RunAdmission();
    }
    rep.CheckStatus(status, "admission");
    for (int i = 0; i < nodes; ++i) {
      rep.Check(Verified(*controller, i, start.now), "not admitted", i);
    }
    retries += Retries(attestor, AllNodes(nodes));

    for (int epoch = 0; epoch < kSessionEpochs; ++epoch) {
      const std::vector<int> roster = controller->Admitted();
      const uint64_t since = fleet->now();
      const Clock::time_point epoch_start = Clock::now();
      {
        ScopedSpan span("fleet.control.epoch");
        status = controller->RunReattestEpoch();
      }
      rep.phase_s.push_back(Seconds(epoch_start, Clock::now()));
      rep.CheckStatus(status, "re-attestation epoch");
      for (const int node : roster) {
        rep.Check(Verified(*controller, node, since), "not re-attested",
                  node);
      }
      retries += Retries(attestor, roster);
    }

    // Every pushed node must ack the exact region digest (the controller
    // settles a node only on that), hold that region in its DRAM, and
    // re-attest afterwards.
    {
      const std::vector<int> roster = controller->Admitted();
      const uint64_t since = fleet->now();
      {
        ScopedSpan span("fleet.control.push");
        status = controller->PushConfig(kConfigEntries);
      }
      rep.CheckStatus(status, "config push");
      const uint32_t generation = controller->config_generation();
      const Sha256Digest expected =
          ConfigRegionDigest(generation, EncodeConfigBlob(kConfigEntries));
      for (const int node : roster) {
        rep.Check(
            controller->health(node).config_generation == generation &&
                ConfigRegion(fleet->node(node)) == expected,
            "config push not acked with the region digest", node);
        rep.Check(Verified(*controller, node, since),
                  "not re-measured after the push", node);
      }
      retries += Retries(attestor, roster);
    }

    {
      const std::vector<NodeCounters> before = ReadFleet(*fleet);
      const int first_clone = fleet->num_nodes();
      {
        ScopedSpan span("fleet.control.scale_up");
        status = controller->ScaleUp(kSessionClones);
      }
      rep.CheckStatus(status, "scale-up");
      std::vector<int> clones;
      for (int id = first_clone; id < first_clone + kSessionClones; ++id) {
        const bool cloned = id < controller->num_nodes();
        rep.Check(cloned && Verified(*controller, id, 0), "clone not admitted",
                  id);
        if (cloned) {
          clones.push_back(id);
          base.push_back(CloneBase(before[static_cast<size_t>(
              controller->health(id).cloned_from)]));
        }
      }
      retries += Retries(attestor, clones);
    }

    {
      ScopedSpan span("fleet.control.drain");
      controller->Drain();
    }
    digest = Digest(*fleet);
  }
  rep.wall_s = Seconds(body_start, Clock::now());

  FinishRep(*fleet, start, base, &rep);
  rep.counters["attest_retries"] = retries;
  rep.counters["update_committed"] = 0;
  rep.counters["control_admitted"] = controller->Admitted().size();
  rep.digest = HexEncode(digest.data(), digest.size());
  return rep;
}

// --- rollout ---------------------------------------------------------------

// The campaign's firmware: a 1 KiB payload drawn from the seed, packed
// unsigned (the campaign re-signs it per node, as BM_UpdateCampaign does).
std::vector<uint8_t> RolloutContainer(uint64_t seed) {
  FirmwareContainerSpec spec;
  spec.fw_version = 2;
  spec.payload.resize(kRolloutPayloadBytes);
  Xoshiro256 rng(seed);
  for (uint8_t& byte : spec.payload) {
    byte = static_cast<uint8_t>(rng.Next32());
  }
  Result<std::vector<uint8_t>> container = PackFirmware(spec);
  if (!container.ok()) {
    Die("cannot pack the rollout image: " + container.status().ToString());
  }
  return std::move(*container);
}

void RunQuantum(Fleet& fleet) {
  ScopedSpan span("fleet.run_quantum");
  fleet.RunQuantum();
}

// BM_UpdateCampaign's campaign plus the admission round before it and the
// closing digest, driven the way tools/tlfleet.cc drives them.
Rep RunRollout(const Options& opt, const std::vector<uint8_t>& container,
               bool setup_only) {
  const int nodes = opt.nodes;
  Rep rep;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FleetAttestor> attestor;
  const Clock::time_point setup_start = Clock::now();
  {
    ScopedSpan span("setup");
    fleet = BuildFleet(opt.seed, nodes);
    FleetProvisionConfig prov;
    prov.warm_boot = true;
    prov.payload_capacity = kRolloutPayloadBytes;
    prov.tamper_count = opt.tamper;
    attestor = std::make_unique<FleetAttestor>(
        fleet.get(), Provision(fleet.get(), prov), AttestPolicy{});
  }
  rep.setup_s = Seconds(setup_start, Clock::now());
  if (setup_only) {
    return rep;
  }

  const BodyStart start(*fleet);
  uint64_t committed = 0;
  uint64_t retries = 0;
  Sha256Digest digest{};
  const Clock::time_point body_start = Clock::now();
  {
    ScopedSpan body("body");
    {
      ScopedSpan phase("rollout.admission");
      {
        ScopedSpan span("fleet.attest.pump");
        attestor->Begin();
      }
      for (uint64_t q = 0; q < kPhaseQuanta && !attestor->Done(); ++q) {
        RunQuantum(*fleet);
        ScopedSpan span("fleet.attest.pump");
        attestor->OnQuantumBoundary();
      }
    }
    const std::vector<int> verified = attestor->Verified();
    for (int i = 0; i < nodes; ++i) {
      rep.Check(attestor->state(i) == AttestNodeState::kVerified,
                "not verified", i);
    }
    retries += Retries(*attestor, AllNodes(nodes));

    UpdateCampaignConfig config;
    config.canary_pct = kRolloutCanaryPct;
    UpdateCampaign campaign(fleet.get(), attestor.get(), container, config);
    const Clock::time_point campaign_start = Clock::now();
    {
      ScopedSpan phase("rollout.campaign");
      Status status;
      {
        ScopedSpan span("fleet.update.pump");
        status = campaign.Start();
      }
      rep.CheckStatus(status, "campaign start");
      for (uint64_t q = 0; status.ok() && q < kPhaseQuanta && !campaign.Done();
           ++q) {
        RunQuantum(*fleet);
        ScopedSpan span("fleet.update.pump");
        campaign.OnQuantumBoundary();
      }
    }
    rep.phase_s.push_back(Seconds(campaign_start, Clock::now()));
    if (!campaign.Succeeded()) {
      rep.Fail(std::string("campaign ended in phase ") +
               UpdatePhaseName(campaign.phase()));
    }
    for (const int node : verified) {
      rep.Check(campaign.state(node) == UpdateNodeState::kCommitted,
                "update not committed", node);
    }
    // Each updated node re-attested once, in its canary or fleet wave.
    retries += Retries(*attestor, verified);
    committed = static_cast<uint64_t>(
        campaign.CountInState(UpdateNodeState::kCommitted));
    digest = Digest(*fleet);
  }
  rep.wall_s = Seconds(body_start, Clock::now());

  FinishRep(*fleet, start, start.nodes, &rep);
  rep.counters["attest_retries"] = retries;
  rep.counters["update_committed"] = committed;
  rep.counters["control_admitted"] = 0;
  rep.digest = HexEncode(digest.data(), digest.size());
  return rep;
}

// --- compute ---------------------------------------------------------------

// A load/store/ALU loop over the trustlet's own EA-MPU data region. The
// iteration count lives at TL_DATA + 0 for the output check; the multiplier
// is drawn from the seed.
std::string ComputeBody(uint64_t seed, int trustlet) {
  char body[320];
  std::snprintf(body, sizeof(body),
                "tl_main:\n"
                "    li   r4, TL_DATA\n"
                "    li   r5, 0x%08x\n"
                "    movi r1, 0\n"
                "loop:\n"
                "    ldw  r2, [r4 + 4]\n"
                "    add  r2, r2, r5\n"
                "    mul  r3, r2, r1\n"
                "    stw  r3, [r4 + 4]\n"
                "    addi r1, r1, 1\n"
                "    stw  r1, [r4]\n"
                "    jmp  loop\n",
                static_cast<uint32_t>(DeriveDeviceSeed(
                    seed, static_cast<uint32_t>(trustlet))) |
                    1u);
  return body;
}

SystemImage ComputeImage(uint64_t seed) {
  ScopedSpan span("trustlet.build");
  SystemImage image;
  for (int i = 0; i < 2; ++i) {
    TrustletBuildSpec spec;
    spec.name = "T" + std::to_string(i);
    spec.code_addr = kComputeCode[i];
    spec.data_addr = kComputeData[i];
    spec.data_size = 0x400;
    spec.stack_size = 0x100;
    spec.body = ComputeBody(seed, i);
    Result<TrustletMeta> trustlet = BuildTrustlet(spec);
    if (!trustlet.ok()) {
      Die("cannot build " + spec.name + ": " + trustlet.status().ToString());
    }
    image.Add(std::move(*trustlet));
  }
  Result<TrustletMeta> os = BuildNanos(NanosConfig{});
  if (!os.ok()) {
    Die("cannot build nanOS: " + os.status().ToString());
  }
  image.Add(std::move(*os));
  return image;
}

void Boot(Platform& platform, const SystemImage& image) {
  ScopedSpan span("loader.boot");
  const Status installed = platform.InstallImage(image);
  if (!installed.ok()) {
    Die("image install failed: " + installed.ToString());
  }
  const Result<LoadReport> report = platform.BootAndLaunch();
  if (!report.ok()) {
    Die("secure boot failed: " + report.status().ToString());
  }
}

// Sabotage for the smoke test: a `halt` over the first trustlet's initial
// instruction on the first `count` nodes.
void HaltFirstTrustlet(Fleet& fleet, const SystemImage& image, int count) {
  const TrustletMeta& first = image.records().front();
  Result<AsmOutput> halt = Assemble("halt\n");
  if (!halt.ok()) {
    Die("cannot assemble halt: " + halt.status().ToString());
  }
  uint32_t base = 0;
  const std::vector<uint8_t> word = halt->Flatten(&base);
  for (int i = 0; i < std::min(count, fleet.num_nodes()); ++i) {
    fleet.node(i).platform().bus().HostWriteBytes(
        first.code_addr + first.start_offset, word);
  }
}

// Both trustlets' loop counters on every node, node-major.
std::vector<uint32_t> LoopCounters(Fleet& fleet) {
  std::vector<uint32_t> counters;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    for (const uint32_t data : kComputeData) {
      uint32_t value = 0;
      fleet.node(i).platform().bus().HostReadWord(data, &value);
      counters.push_back(value);
    }
  }
  return counters;
}

// A busy fleet: every node cold-boots nanOS plus two compute trustlets and
// runs a fixed number of quanta, with no verifier traffic.
Rep RunCompute(const Options& opt, bool setup_only) {
  const int nodes = opt.nodes;
  Rep rep;
  std::unique_ptr<Fleet> fleet;
  const Clock::time_point setup_start = Clock::now();
  {
    ScopedSpan span("setup");
    fleet = BuildFleet(opt.seed, nodes);
    const SystemImage image = ComputeImage(opt.seed);
    for (int i = 0; i < nodes; ++i) {
      Platform& platform = fleet->node(i).platform();
      Boot(platform, image);
      platform.ReleaseThreadAffinity();
    }
    if (opt.tamper > 0) {
      HaltFirstTrustlet(*fleet, image, opt.tamper);
    }
  }
  rep.setup_s = Seconds(setup_start, Clock::now());
  if (setup_only) {
    return rep;
  }

  const BodyStart start(*fleet);
  const std::vector<uint32_t> loops_before = LoopCounters(*fleet);
  Sha256Digest digest{};
  const Clock::time_point body_start = Clock::now();
  {
    ScopedSpan body("body");
    for (int batch = 0; batch < kComputeBatches; ++batch) {
      const Clock::time_point batch_start = Clock::now();
      {
        ScopedSpan span("fleet.run_quantum");
        fleet->RunQuanta(kComputeBatchQuanta);
      }
      rep.phase_s.push_back(Seconds(batch_start, Clock::now()));
    }
    digest = Digest(*fleet);
  }
  rep.wall_s = Seconds(body_start, Clock::now());

  rep.ops = static_cast<uint64_t>(nodes) * kComputeBatches *
            kComputeBatchQuanta;
  FinishRep(*fleet, start, start.nodes, &rep);
  const std::vector<uint32_t> loops_after = LoopCounters(*fleet);
  for (size_t k = 0; k < loops_after.size(); ++k) {
    if (loops_after[k] == loops_before[k]) {
      rep.Fail("node " + std::to_string(k / 2) + ": trustlet T" +
               std::to_string(k % 2) + " loop counter did not advance");
    }
  }
  rep.counters["attest_retries"] = 0;
  rep.counters["update_committed"] = 0;
  rep.counters["control_admitted"] = 0;
  rep.digest = HexEncode(digest.data(), digest.size());
  return rep;
}

// --- CPU hops --------------------------------------------------------------

// The benchmark's one thread hops to the next CPU it may run on every
// kHopMicros. On a shared host the vCPUs run at different speeds, and which
// one is slow changes from minute to minute. Left alone, the scheduler keeps
// the thread on one vCPU for most of a run, so a run measured that vCPU: the
// medians of five runs of the same code spread by 25%, against 4% with hops.
// Hops every 25, 100 or 300 ms measured the same.
constexpr long kHopMicros = 50'000;

std::vector<int>& HopCpus() {
  static std::vector<int> cpus;
  return cpus;
}
volatile sig_atomic_t hop_next = 0;

void Hop(int) {
  const std::vector<int>& cpus = HopCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(hop_next)], &set);
  hop_next = (hop_next + 1) % static_cast<int>(cpus.size());
  sched_setaffinity(0, sizeof(set), &set);
}

// Starts the hops when the process may use more than one CPU.
void StartCpuHops() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      HopCpus().push_back(cpu);
    }
  }
  if (HopCpus().size() < 2) {
    return;
  }
  struct sigaction action {};
  action.sa_handler = Hop;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  const itimerval every{{0, kHopMicros}, {0, kHopMicros}};
  setitimer(ITIMER_REAL, &every, nullptr);
}

// --- Main ------------------------------------------------------------------

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
    return model;
  }
#endif
  return "unknown";
}

void PrintHost(const Options& opt) {
  std::printf(
      "host {\"workload\": %s, \"seed\": %llu, \"nodes\": %d, "
      "\"threads\": %d, \"nproc\": %d, \"cpu\": %s, \"sha256_engine\": %s, "
      "\"build_type\": %s, \"compiler\": %s}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.nodes, kExecutorThreads,
      HostCpus(),
      JsonString(CpuModel()).c_str(), JsonString(Sha256EngineName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(kCompiler).c_str());
}

void PrintRep(int index, bool warmup, bool traced, const Rep& rep,
              const std::map<std::string, double>& self) {
  std::string line = "rep {\"rep\": " + std::to_string(index) +
                     ", \"warmup\": " + (warmup ? "true" : "false") +
                     ", \"traced\": " + (traced ? "true" : "false") +
                     ", \"setup_s\": " + JsonNumber(rep.setup_s) +
                     ", \"wall_s\": " + JsonNumber(rep.wall_s) +
                     ", \"phase_s\": [";
  for (size_t i = 0; i < rep.phase_s.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonNumber(rep.phase_s[i]);
  }
  line += "], \"sim_cycles\": " + std::to_string(rep.sim_cycles) +
          ", \"ops\": " + std::to_string(rep.ops) +
          ", \"failed_ops\": " + std::to_string(rep.failed_ops) +
          ", \"failures\": [";
  for (size_t i = 0; i < rep.failures.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(rep.failures[i]);
  }
  line += "], \"digest\": " + JsonString(rep.digest) + ", \"counters\": {";
  const char* sep = "";
  for (const auto& [name, value] : rep.counters) {
    line += sep + JsonString(name) + ": " + std::to_string(value);
    sep = ", ";
  }
  line += "}, \"self_s\": {";
  sep = "";
  for (const auto& [name, seconds] : self) {
    line += sep + JsonString(name) + ": " + JsonNumber(seconds);
    sep = ", ";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload session|rollout|compute "
               "--seed N --seconds S\n"
               "                  [--trace 0|1] [--trace-out FILE] "
               "[--nodes N] [--tamper K]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      opt->trace = value == "1";
    } else if (arg == "--trace-out") {
      opt->trace_out = value;
    } else if (arg == "--nodes") {
      opt->nodes = std::atoi(value.c_str());
    } else if (arg == "--tamper") {
      opt->tamper = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "fleetbench: bad argument '%s %s'\n", arg.c_str(),
                   value.c_str());
      return false;
    }
  }
  return argc % 2 == 1 &&
         (opt->workload == "session" || opt->workload == "rollout" ||
          opt->workload == "compute") &&
         opt->seconds >= 0 && opt->nodes >= 0 && opt->tamper >= 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    return Usage();
  }
  if (opt.nodes == 0) {
    opt.nodes = opt.workload == "session"   ? kSessionNodes
                : opt.workload == "rollout" ? kRolloutNodes
                                            : kComputeNodes;
  }
  PrintHost(opt);
  std::fflush(stdout);
  const std::vector<uint8_t> container =
      opt.workload == "rollout" ? RolloutContainer(opt.seed)
                                : std::vector<uint8_t>{};

  auto run = [&](bool setup_only) {
    return opt.workload == "session"
               ? RunSession(opt, setup_only)
               : opt.workload == "rollout"
                     ? RunRollout(opt, container, setup_only)
                     : RunCompute(opt, setup_only);
  };
  StartCpuHops();
  // Repetition 0 warms the process up (first-touch page faults, allocator
  // pools, host caches). It is checked like the others but not timed.
  const Clock::time_point start = Clock::now();
  int runs[2] = {0, 0};  // Timed untraced, timed traced.
  for (int index = 0;; ++index) {
    if (runs[0] >= kMinReps && (!opt.trace || runs[1] >= kMinReps) &&
        Seconds(start, Clock::now()) >= opt.seconds) {
      break;
    }
    const bool warmup = index == 0;
    const bool traced = opt.trace && !warmup && index % 2 == 0;
    Spans().BeginRep(index, traced);
    const Rep rep = run(/*setup_only=*/false);
    Spans().EndRep();
    PrintRep(index, warmup, traced, rep,
             traced ? Spans().SelfSeconds(index)
                    : std::map<std::string, double>{});
    if (!warmup) {
      ++runs[traced ? 1 : 0];
    }
  }
  for (int setups = runs[0]; !opt.trace && setups < kSetupSamples; ++setups) {
    std::printf("setup {\"setup_s\": %s}\n",
                JsonNumber(run(/*setup_only=*/true).setup_s).c_str());
  }

  if (!opt.trace_out.empty() && !Spans().WriteChromeTrace(opt.trace_out)) {
    Die("cannot write " + opt.trace_out);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("done {\"peak_rss_kb\": %ld, \"reps\": %d}\n", usage.ru_maxrss,
              runs[0] + runs[1]);
  return 0;
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
