// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfleet — networked multi-device fleet simulator (DESIGN.md §13).
//
//   tlfleet run [guest.s] --nodes N [--topology star|ring] [--seed S]
//               [--threads T] [--attest] [--warm-boot] [--tamper K]
//               [--quantum Q] [--quanta K] [--batch-quanta K] [--latency C]
//               [--loss-ppm P] [--reorder-ppm P]
//               [--hostile corrupt|replay|reflect|all] [--hostile-ppm P]
//               [--corrupt-ppm P] [--replay-ppm P] [--reflect-ppm P]
//               [--update-image FILE]... [--canary-pct P]
//               [--halt-on-quarantine] [--update-tamper-canary]
//               [--transcript FILE] [--trace-json FILE] [--stats] [--quiet]
//
// Two modes:
//  * --attest: every node boots the remote-attestation stack (FW trustlet +
//    per-node-keyed UART attestation trustlet + nanOS without the UART);
//    the host verifier challenges all nodes concurrently, retries with
//    backoff, and quarantines nodes whose measurements never match. With a
//    guest.s argument the assembled image is embedded in FW as measured
//    payload; with --tamper K, K deterministically-chosen nodes get one FW
//    code bit flipped post-boot — they keep running but fail attestation.
//  * workload (no --attest, guest.s required): the guest image runs bare on
//    every node; UART bytes travel the fabric to topology neighbours (and
//    ring fleets bridge GPIO at quantum boundaries).
//
// Update campaigns (attest mode): each --update-image FILE names a .tlfw
// container (tools/tlfw) rolled out after the initial attestation round —
// canary subset first, chunked transfer over the links, post-update
// re-attestation against the new golden measurement, commit of the
// anti-rollback counter only after the canaries verify. Multiple
// --update-image flags run campaigns in order, sharing the monotonic
// counter — replaying an older signed image is rejected fleet-wide.
//
// Results are bit-identical for a fixed --seed regardless of --threads; the
// fleet digest printed at the end pins the architectural state of every
// node, so two runs can be compared with string equality.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/fleet/attest.h"
#include "src/fleet/fleet.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/fleet/update.h"
#include "src/harness/fleet_campaign.h"
#include "src/isa/assembler.h"
#include "src/platform/observe/fleet_trace.h"
#include "src/platform/observe/json.h"
#include "tools/cli.h"

namespace trustlite {
namespace {

constexpr uint32_t kGuestOrigin = 0x0003'0000;
constexpr uint32_t kGuestSp = 0x0004'0000;

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlfleet run [guest.s] --nodes N [--topology star|ring] [--seed S]\n"
      "              [--threads T] [--attest] [--warm-boot] [--tamper K]\n"
      "              [--quantum Q] [--quanta K] [--batch-quanta K]\n"
      "              [--latency C] [--loss-ppm P] [--reorder-ppm P]\n"
      "              [--hostile MODE] [--hostile-ppm P] [--corrupt-ppm P]\n"
      "              [--replay-ppm P] [--reflect-ppm P]\n"
      "              [--update-image FILE]... [--canary-pct P]\n"
      "              [--halt-on-quarantine] [--update-tamper-canary]\n"
      "              [--transcript FILE] [--trace-json FILE] [--stats]\n"
      "              [--quiet]\n"
      "\n"
      "  --warm-boot  attest mode: Secure-Loader-boot node 0 once, then\n"
      "               provision the other nodes by snapshot restore +\n"
      "               per-device key/seed patching (DESIGN.md Sec. 14)\n"
      "  --batch-quanta K  hold a growing TX burst up to K quanta before it\n"
      "               enters the fabric (1 = flush every quantum); results\n"
      "               stay bit-identical across --threads at any K\n"
      "  --hostile MODE  arm every link with an active attack\n"
      "               (corrupt|replay|reflect|all) at --hostile-ppm per\n"
      "               message; --corrupt-ppm/--replay-ppm/--reflect-ppm set\n"
      "               individual rates (DESIGN.md Sec. 13)\n"
      "  --update-image FILE  attest mode: roll out this .tlfw firmware\n"
      "               container after the initial attestation round;\n"
      "               repeatable — campaigns run in order and share the\n"
      "               monotonic anti-rollback counter\n"
      "  --canary-pct P  percent of verified nodes updated first (default\n"
      "               10; 100 = single-stage rollout)\n"
      "  --halt-on-quarantine  abort a campaign when a re-attestation\n"
      "               quarantines, rolling back uncommitted nodes\n"
      "  --update-tamper-canary  test hook: flip one FW code bit on the\n"
      "               first canary as its re-attestation starts (MVAM-style\n"
      "               mid-campaign tamper)\n"
      "  --transcript FILE  attest mode: write the verifier transcript and\n"
      "               any campaign transcripts (bit-identical across\n"
      "               --threads for a fixed seed)\n");
  return help ? 0 : 2;
}

struct Options {
  std::string guest;
  int nodes = 4;
  Topology topology = Topology::kStar;
  uint64_t seed = 1;
  int threads = 1;
  bool attest = false;
  bool warm_boot = false;
  int tamper = 0;
  uint64_t quantum = 20'000;
  uint64_t quanta = 5'000;  // Budget; attest mode stops when resolved.
  uint32_t batch_quanta = 1;
  uint32_t latency = 1'000;
  uint32_t loss_ppm = 0;
  uint32_t reorder_ppm = 0;
  HostileMode hostile = HostileMode::kNone;
  uint32_t hostile_ppm = 150'000;
  uint32_t corrupt_ppm = 0;
  uint32_t replay_ppm = 0;
  uint32_t reflect_ppm = 0;
  std::vector<std::string> update_images;
  int canary_pct = 10;
  bool halt_on_quarantine = false;
  bool update_tamper_canary = false;
  std::string transcript;
  std::string trace_json;
  bool stats = false;
  bool quiet = false;
};

bool ParseOptions(const std::vector<std::string>& args, Options* opt) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    auto number = [&](auto* out) {
      return ParseNumber("tlfleet", arg, args[++i], out);
    };
    bool ok = true;
    if (arg == "--nodes" && has_value) {
      ok = number(&opt->nodes);
    } else if (arg == "--topology" && has_value) {
      const std::string& name = args[++i];
      if (name == "star") {
        opt->topology = Topology::kStar;
      } else if (name == "ring") {
        opt->topology = Topology::kRing;
      } else {
        std::fprintf(stderr, "tlfleet: unknown topology '%s'\n", name.c_str());
        return false;
      }
    } else if (arg == "--seed" && has_value) {
      ok = number(&opt->seed);
    } else if (arg == "--threads" && has_value) {
      ok = number(&opt->threads);
    } else if (arg == "--attest") {
      opt->attest = true;
    } else if (arg == "--warm-boot") {
      opt->warm_boot = true;
    } else if (arg == "--tamper" && has_value) {
      ok = number(&opt->tamper);
    } else if (arg == "--quantum" && has_value) {
      ok = number(&opt->quantum);
    } else if (arg == "--quanta" && has_value) {
      ok = number(&opt->quanta);
    } else if (arg == "--batch-quanta" && has_value) {
      ok = number(&opt->batch_quanta);
    } else if (arg == "--latency" && has_value) {
      ok = number(&opt->latency);
    } else if (arg == "--loss-ppm" && has_value) {
      ok = number(&opt->loss_ppm);
    } else if (arg == "--reorder-ppm" && has_value) {
      ok = number(&opt->reorder_ppm);
    } else if (arg == "--hostile" && has_value) {
      const std::string& name = args[++i];
      if (name == "corrupt") {
        opt->hostile = HostileMode::kCorrupt;
      } else if (name == "replay") {
        opt->hostile = HostileMode::kReplay;
      } else if (name == "reflect") {
        opt->hostile = HostileMode::kReflect;
      } else if (name == "all") {
        opt->hostile = HostileMode::kAll;
      } else {
        std::fprintf(stderr, "tlfleet: unknown hostile mode '%s'\n",
                     name.c_str());
        return false;
      }
    } else if (arg == "--hostile-ppm" && has_value) {
      ok = number(&opt->hostile_ppm);
    } else if (arg == "--corrupt-ppm" && has_value) {
      ok = number(&opt->corrupt_ppm);
    } else if (arg == "--replay-ppm" && has_value) {
      ok = number(&opt->replay_ppm);
    } else if (arg == "--reflect-ppm" && has_value) {
      ok = number(&opt->reflect_ppm);
    } else if (arg == "--update-image" && has_value) {
      opt->update_images.push_back(args[++i]);
    } else if (arg == "--canary-pct" && has_value) {
      ok = number(&opt->canary_pct);
    } else if (arg == "--halt-on-quarantine") {
      opt->halt_on_quarantine = true;
    } else if (arg == "--update-tamper-canary") {
      opt->update_tamper_canary = true;
    } else if (arg == "--transcript" && has_value) {
      opt->transcript = args[++i];
    } else if (arg == "--trace-json" && has_value) {
      opt->trace_json = args[++i];
    } else if (arg == "--stats") {
      opt->stats = true;
    } else if (arg == "--quiet") {
      opt->quiet = true;
    } else if (arg.rfind("--", 0) != 0 && opt->guest.empty()) {
      opt->guest = arg;
    } else {
      std::fprintf(stderr, "tlfleet: bad argument '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) {
      return false;
    }
  }
  if (opt->nodes < 1 || opt->quantum == 0) {
    std::fprintf(stderr, "tlfleet: need --nodes >= 1 and --quantum > 0\n");
    return false;
  }
  if (opt->warm_boot && !opt->attest) {
    std::fprintf(stderr, "tlfleet: --warm-boot requires --attest\n");
    return false;
  }
  if (!opt->update_images.empty() && !opt->attest) {
    std::fprintf(stderr, "tlfleet: --update-image requires --attest\n");
    return false;
  }
  if (opt->update_tamper_canary && opt->update_images.empty()) {
    std::fprintf(stderr,
                 "tlfleet: --update-tamper-canary requires --update-image\n");
    return false;
  }
  if (opt->canary_pct < 1 || opt->canary_pct > 100) {
    std::fprintf(stderr, "tlfleet: --canary-pct must be in [1, 100]\n");
    return false;
  }
  if (!opt->attest && opt->guest.empty()) {
    std::fprintf(stderr, "tlfleet: workload mode needs a guest.s program "
                         "(or pass --attest)\n");
    return false;
  }
  return true;
}

int CmdRun(const std::vector<std::string>& args) {
  Options opt;
  if (!ParseOptions(args, &opt)) {
    return 2;
  }

  // Assemble the guest program (workload image / attestation payload).
  Result<AsmOutput> guest(Status::Ok());
  std::vector<uint8_t> guest_image;
  if (!opt.guest.empty()) {
    std::string source;
    if (!ReadTextFile("tlfleet", opt.guest, &source)) {
      return 1;
    }
    guest = Assemble(source, kGuestOrigin);
    if (!guest.ok()) {
      std::fprintf(stderr, "tlfleet: %s\n",
                   guest.status().ToString().c_str());
      return 1;
    }
    uint32_t base = 0;
    guest_image = guest->Flatten(&base);
  }

  // Load and validate every update container up front: a malformed file
  // fails before the fleet spins up, and the provisioner sizes each node's
  // payload window to hold the largest image.
  std::vector<std::vector<uint8_t>> update_containers;
  uint32_t update_capacity = 0;
  for (const std::string& path : opt.update_images) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "tlfleet: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    Result<FirmwareImage> image = ParseFirmware(*bytes);
    if (!image.ok()) {
      std::fprintf(stderr, "tlfleet: %s: %s\n", path.c_str(),
                   image.status().ToString().c_str());
      return 1;
    }
    if (image->payload.size() > update_capacity) {
      update_capacity = static_cast<uint32_t>(image->payload.size());
    }
    update_containers.push_back(std::move(*bytes));
  }

  FleetConfig config;
  config.nodes = opt.nodes;
  config.topology = opt.topology;
  config.seed = opt.seed;
  config.threads = opt.threads;
  config.quantum = opt.quantum;
  config.harvest_batch_quanta = opt.batch_quanta;
  config.link.latency_cycles = opt.latency;
  config.link.loss_ppm = opt.loss_ppm;
  config.link.reorder_ppm = opt.reorder_ppm;
  config.link = ApplyHostileMode(config.link, opt.hostile, opt.hostile_ppm);
  if (opt.corrupt_ppm != 0) {
    config.link.corrupt_ppm = opt.corrupt_ppm;
  }
  if (opt.replay_ppm != 0) {
    config.link.replay_ppm = opt.replay_ppm;
  }
  if (opt.reflect_ppm != 0) {
    config.link.reflect_ppm = opt.reflect_ppm;
  }
  Fleet fleet(config);

  std::vector<NodeProvision> provisions;
  if (opt.attest) {
    FleetProvisionConfig prov;
    prov.payload = guest_image;
    prov.payload_capacity = update_capacity;
    prov.tamper_count = opt.tamper;
    prov.warm_boot = opt.warm_boot;
    Result<std::vector<NodeProvision>> provisioned =
        ProvisionAttestationFleet(&fleet, prov);
    if (!provisioned.ok()) {
      std::fprintf(stderr, "tlfleet: provisioning failed: %s\n",
                   provisioned.status().ToString().c_str());
      return 1;
    }
    provisions = std::move(*provisioned);
  } else {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      Platform& platform = fleet.node(i).platform();
      for (const AsmChunk& chunk : guest->chunks) {
        if (!platform.bus().HostWriteBytes(chunk.base, chunk.bytes)) {
          std::fprintf(stderr, "tlfleet: chunk at 0x%08x unmapped\n",
                       chunk.base);
          return 1;
        }
      }
      uint32_t entry = guest->chunks.empty() ? 0 : guest->chunks.front().base;
      auto it = guest->symbols.find("start");
      if (it != guest->symbols.end()) {
        entry = it->second;
      }
      platform.cpu().Reset(entry);
      platform.cpu().set_reg(kRegSp, kGuestSp);
      platform.ReleaseThreadAffinity();
    }
  }

  // Fleet trace aggregation: one trace process per node.
  FleetTraceAggregator aggregator;
  std::vector<ChromeTraceWriter*> node_writers;
  if (!opt.trace_json.empty()) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      ChromeTraceWriter* writer = aggregator.AddNode(i);
      node_writers.push_back(writer);
      if (opt.attest) {
        writer->AddLane("FW", 0x11000, 0x12000);
        writer->AddLane("ATTN", 0x15000, 0x16000);
        writer->AddLane("OS", 0x20000, 0x22000, /*is_os=*/true);
      } else {
        for (const AsmChunk& chunk : guest->chunks) {
          char lane[32];
          std::snprintf(lane, sizeof(lane), "code@%08x", chunk.base);
          writer->AddLane(lane, chunk.base,
                          chunk.base + static_cast<uint32_t>(
                                           chunk.bytes.size()));
        }
      }
      fleet.node(i).platform().AddEventSink(writer);
    }
  }

  FleetAttestor attestor(&fleet, provisions, AttestPolicy{});
  const auto wall_start = std::chrono::steady_clock::now();
  if (opt.attest) {
    attestor.Begin();
  }
  uint64_t quanta = 0;
  for (; quanta < opt.quanta; ++quanta) {
    fleet.RunQuantum();
    if (opt.attest) {
      attestor.OnQuantumBoundary();
      if (attestor.Done()) {
        ++quanta;
        break;
      }
    } else if (fleet.AllHalted() && fleet.fabric().in_flight() == 0) {
      ++quanta;
      break;
    }
  }

  // Update campaigns run in flag order after the initial attestation round
  // resolves, sharing the global quanta budget and the fleet's monotonic
  // anti-rollback counters (so an older image in a later campaign is
  // rejected by every node).
  std::vector<std::unique_ptr<UpdateCampaign>> campaigns;
  bool campaigns_started_ok = true;
  if (opt.attest && attestor.Done()) {
    UpdateCampaignConfig ucfg;
    ucfg.canary_pct = opt.canary_pct;
    ucfg.halt_on_quarantine = opt.halt_on_quarantine;
    for (size_t k = 0; k < update_containers.size(); ++k) {
      auto campaign = std::make_unique<UpdateCampaign>(
          &fleet, &attestor, update_containers[k], ucfg);
      const Status started = campaign->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "tlfleet: update[%zu]: %s\n", k,
                     started.ToString().c_str());
        campaigns_started_ok = false;
        campaigns.push_back(std::move(campaign));
        continue;
      }
      bool tampered_canary = false;
      for (; quanta < opt.quanta && !campaign->Done(); ++quanta) {
        fleet.RunQuantum();
        campaign->OnQuantumBoundary();
        if (opt.update_tamper_canary && k == 0 && !tampered_canary &&
            campaign->phase() == UpdatePhase::kCanaryVerify) {
          // MVAM-style mid-campaign tamper: flip one code bit on the first
          // canary just as its re-attestation starts. The challenge beats
          // the tamper to the wire but not to the node, so the report is
          // computed over the flipped code and never verifies.
          const int victim = campaign->canaries().front();
          (void)TamperNode(fleet.node(victim),
                           &provisions[static_cast<size_t>(victim)]);
          tampered_canary = true;
        }
      }
      campaigns.push_back(std::move(campaign));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Summary.
  std::vector<FleetNodeStatsRow> rows = fleet.SummaryRows();
  int quarantined = 0;
  int verified = 0;
  bool plan_ok = true;
  if (opt.attest) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      const AttestNodeState state = attestor.state(i);
      rows[static_cast<size_t>(i)].state = AttestNodeStateName(state);
      if (provisions[static_cast<size_t>(i)].tampered) {
        rows[static_cast<size_t>(i)].state += " (tampered)";
      }
      verified += state == AttestNodeState::kVerified ? 1 : 0;
      quarantined += state == AttestNodeState::kQuarantined ? 1 : 0;
      const bool want_quarantine =
          provisions[static_cast<size_t>(i)].tampered;
      const AttestNodeState want = want_quarantine
                                       ? AttestNodeState::kQuarantined
                                       : AttestNodeState::kVerified;
      plan_ok = plan_ok && state == want;
    }
  }
  if (!opt.quiet) {
    std::printf("fleet: %d node(s), %s topology, seed %llu, %d thread(s), "
                "quantum %llu\n",
                fleet.num_nodes(), TopologyName(config.topology),
                static_cast<unsigned long long>(opt.seed), opt.threads,
                static_cast<unsigned long long>(opt.quantum));
    std::printf("%s", FormatFleetStats(rows, elapsed).c_str());
    if (opt.attest) {
      std::printf("attestation: %d verified, %d quarantined (%llu quanta, "
                  "%llu cycles)\n",
                  verified, quarantined,
                  static_cast<unsigned long long>(quanta),
                  static_cast<unsigned long long>(fleet.now()));
    }
    if (opt.stats) {
      const LinkFabric::Stats ls = fleet.fabric().stats();
      std::printf("links: sent %llu delivered %llu dropped %llu reordered "
                  "%llu bytes %llu in-flight %zu\n",
                  static_cast<unsigned long long>(ls.sent),
                  static_cast<unsigned long long>(ls.delivered),
                  static_cast<unsigned long long>(ls.dropped),
                  static_cast<unsigned long long>(ls.reordered),
                  static_cast<unsigned long long>(ls.payload_bytes),
                  fleet.fabric().in_flight());
      std::printf("hostile: corrupted %llu replayed %llu reflected %llu\n",
                  static_cast<unsigned long long>(ls.corrupted),
                  static_cast<unsigned long long>(ls.replayed),
                  static_cast<unsigned long long>(ls.reflected));
      // Per-link rows only for links the adversary actually touched.
      for (const LinkFabric::LinkStatsRow& row :
           fleet.fabric().PerLinkStats()) {
        if (row.corrupted == 0 && row.replayed == 0 && row.reflected == 0) {
          continue;
        }
        std::printf("link %d->%d: sent %llu corrupted %llu replayed %llu "
                    "reflected %llu\n",
                    row.src, row.dst,
                    static_cast<unsigned long long>(row.sent),
                    static_cast<unsigned long long>(row.corrupted),
                    static_cast<unsigned long long>(row.replayed),
                    static_cast<unsigned long long>(row.reflected));
      }
    }
  }
  for (size_t k = 0; k < campaigns.size(); ++k) {
    const UpdateCampaign& campaign = *campaigns[k];
    std::printf("update[%zu]: version=%u phase=%s committed=%d "
                "rolledback=%d quarantined=%d rejected=%d canaries=%zu\n",
                k, campaign.fw_version(), UpdatePhaseName(campaign.phase()),
                campaign.CountInState(UpdateNodeState::kCommitted),
                campaign.CountInState(UpdateNodeState::kRolledBack),
                campaign.CountInState(UpdateNodeState::kQuarantined),
                campaign.CountInState(UpdateNodeState::kRejected),
                campaign.canaries().size());
  }
  const Sha256Digest digest = fleet.FleetDigest();
  std::printf("fleet-digest: %s\n",
              HexEncode(digest.data(), digest.size()).c_str());

  if (!opt.transcript.empty()) {
    std::ofstream out(opt.transcript, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tlfleet: cannot write %s\n",
                   opt.transcript.c_str());
      return 1;
    }
    std::string full = attestor.transcript();
    for (size_t k = 0; k < campaigns.size(); ++k) {
      char header[48];
      std::snprintf(header, sizeof(header), "--- update campaign %zu ---\n",
                    k);
      full += header;
      full += campaigns[k]->transcript();
    }
    out << full;
    if (!opt.quiet) {
      std::printf("transcript: wrote %s (%zu bytes)\n",
                  opt.transcript.c_str(), full.size());
    }
  }

  if (!opt.trace_json.empty()) {
    for (int i = 0; i < fleet.num_nodes(); ++i) {
      // Writers are owned by the aggregator; detach before it serializes.
      fleet.node(i).platform().RemoveEventSink(
          node_writers[static_cast<size_t>(i)]);
    }
    if (!aggregator.WriteFile(opt.trace_json)) {
      std::fprintf(stderr, "tlfleet: cannot write %s\n",
                   opt.trace_json.c_str());
      return 1;
    }
    std::string json_error;
    const bool valid = JsonParses(aggregator.Json(), &json_error);
    if (!opt.quiet) {
      std::printf("trace-json: wrote %s (%zu nodes, %zu events, %s)\n",
                  opt.trace_json.c_str(), aggregator.node_count(),
                  aggregator.event_count(),
                  valid ? "valid JSON" : json_error.c_str());
    }
  }

  if (opt.attest) {
    if (!attestor.Done()) {
      std::fprintf(stderr, "tlfleet: attestation unresolved after %llu "
                           "quanta\n",
                   static_cast<unsigned long long>(opt.quanta));
      return 1;
    }
    // Every campaign must resolve inside the budget; an aborted campaign is
    // a failure unless the run deliberately tampered a canary to watch the
    // halt-and-rollback path fire.
    bool updates_ok = campaigns_started_ok &&
                      campaigns.size() == update_containers.size();
    for (const std::unique_ptr<UpdateCampaign>& campaign : campaigns) {
      updates_ok =
          updates_ok && campaign->Done() &&
          (campaign->Succeeded() || opt.update_tamper_canary);
    }
    return (plan_ok && updates_ok) ? 0 : 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    return Usage(/*help=*/true);
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") {
    return CmdRun(args);
  }
  return Usage();
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
