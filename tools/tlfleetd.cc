// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfleetd — the fleet CLI (DESIGN.md §13 and §17, docs/FLEET.md).
//
//   tlfleetd run [guest.s] --nodes N [fleet, link and output flags]
//                [--epochs E] [--warm-boot] [--tamper K]
//                [--update-image FILE]... [--canary-pct P]
//                [--update-tamper-canary] [--config KEY=VAL]...
//                [--scale-up K] [--idle-quanta Q] [--beacon-quanta K]
//                [--halt-on-quarantine] [--status-json FILE] [--watch]
//                [--transcript FILE]
//   tlfleetd workload guest.s --nodes N [fleet, link and output flags]
//
//   fleet:  [--topology star|ring] [--seed S] [--threads T] [--quantum Q]
//           [--quanta K] [--batch-quanta K]
//   link:   [--latency C] [--loss-ppm P] [--reorder-ppm P]
//           [--hostile corrupt|replay|reflect|all] [--hostile-ppm P]
//           [--corrupt-ppm P] [--replay-ppm P] [--reflect-ppm P]
//   output: [--trace-json FILE] [--stats] [--quiet]
//
// `run` owns an attested fleet across a whole operator session:
//
//   provision -> admission -> E re-attestation epochs -> update campaigns
//   -> config push -> snapshot scale-up -> drain
//
// Every phase appends one JSON status epoch (--status-json writes them
// newline-delimited) and a --watch summary line. `workload` runs the
// assembled guest bare on every node instead: UART bytes travel the fabric
// to topology neighbours, and ring fleets bridge GPIO at quantum boundaries.
// It takes the fleet, link and output flags only. All verdicts,
// transcripts and the final fleet digest are bit-identical across
// --threads for a fixed seed. Scale-up needs the star topology.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/fleet/control.h"
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
// QuantumPool starts threads - 1 OS threads up front.
constexpr int kMaxThreads = 256;

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlfleetd run [guest.s] --nodes N [fleet, link and output flags]\n"
      "               [--epochs E] [--warm-boot] [--tamper K]\n"
      "               [--update-image FILE]... [--canary-pct P]\n"
      "               [--update-tamper-canary] [--config KEY=VAL]...\n"
      "               [--scale-up K] [--idle-quanta Q] [--beacon-quanta K]\n"
      "               [--halt-on-quarantine] [--status-json FILE] [--watch]\n"
      "               [--transcript FILE]\n"
      "  tlfleetd workload guest.s --nodes N [fleet, link and output flags]\n"
      "\n"
      "  fleet:  [--topology star|ring] [--seed S] [--threads T]\n"
      "          [--quantum Q] [--quanta K] [--batch-quanta K]\n"
      "  link:   [--latency C] [--loss-ppm P] [--reorder-ppm P]\n"
      "          [--hostile MODE] [--hostile-ppm P] [--corrupt-ppm P]\n"
      "          [--replay-ppm P] [--reflect-ppm P]\n"
      "  output: [--trace-json FILE] [--stats] [--quiet]\n"
      "\n"
      "  run: provision -> attestation-gated admission -> E re-attestation\n"
      "  epochs -> update campaigns (with --update-image) -> config push\n"
      "  (with --config) -> snapshot scale-up (with --scale-up) -> drain\n"
      "  (docs/FLEET.md). workload: the guest runs bare on every node.\n"
      "\n"
      "  --nodes N    fleet size, 1 to %d (node ids are 16-bit fabric\n"
      "               ports)\n"
      "  --threads T  host threads, at most %d (0 = hardware concurrency;\n"
      "               default 1); results are bit-identical at any T\n"
      "  --quanta K   budget per phase before it fails closed (default\n"
      "               4000); a workload is one phase and stops early once\n"
      "               every node halted and the links are empty\n"
      "  --batch-quanta K  hold a growing TX burst up to K quanta before it\n"
      "               enters the fabric (1 = flush every quantum); results\n"
      "               stay bit-identical across --threads at any K\n"
      "  --hostile MODE  arm every link with an active attack\n"
      "               (corrupt|replay|reflect|all) at --hostile-ppm per\n"
      "               message (default 150000); --corrupt-ppm/--replay-ppm/\n"
      "               --reflect-ppm set individual rates\n"
      "  --epochs E   periodic re-attestation epochs after admission\n"
      "               (default 3); each idles --idle-quanta quanta first\n"
      "  --warm-boot  Secure-Loader-boot node 0 once, then provision the\n"
      "               other nodes by snapshot restore + per-device key/seed\n"
      "               patching (DESIGN.md Sec. 14)\n"
      "  --update-image FILE  roll out this .tlfw firmware container after\n"
      "               the epochs; repeatable — campaigns run in order and\n"
      "               share the monotonic anti-rollback counter\n"
      "  --canary-pct P  percent of admitted nodes updated first (default\n"
      "               10; 100 = single-stage rollout)\n"
      "  --update-tamper-canary  test hook: flip one FW code bit on the\n"
      "               first canary as its re-attestation starts (MVAM-style\n"
      "               mid-campaign tamper)\n"
      "  --config KEY=VAL  push this config entry to every admitted node\n"
      "               (repeatable; one CRC-framed 0xC6 push, digest-checked\n"
      "               acks, then a re-measuring attestation round)\n"
      "  --scale-up K  clone K new nodes from admitted sources by snapshot\n"
      "               restore + in-place re-key, then re-attest and admit\n"
      "               (star topology only)\n"
      "  --beacon-quanta K  node health agents beacon every K quanta\n"
      "               (0 disables beacons; default 8)\n"
      "  --idle-quanta Q  idle quanta between epochs (default 32)\n"
      "  --status-json FILE  write one JSON object per completed phase,\n"
      "               newline-delimited (stable schema: docs/FLEET.md)\n"
      "  --watch      print a one-line roster summary after every phase\n"
      "  --halt-on-quarantine  stop the session with an error as soon as\n"
      "               any phase quarantines a node; an update campaign\n"
      "               aborts and rolls back its uncommitted nodes\n"
      "  --transcript FILE  write the attestor, campaign and controller\n"
      "               transcripts (bit-identical across --threads)\n"
      "  --stats      print the per-node table and link counters\n"
      "\n"
      "  run exits 0 only when every phase succeeded and the roster matches\n"
      "  the tamper plan: tampered nodes quarantined, the rest admitted.\n",
      kMaxFleetNodes, kMaxThreads);
  return help ? 0 : 2;
}

struct Options {
  bool workload = false;  // The subcommand: `workload`, else `run`.
  std::string guest;
  // Library configs the flags fill in place. `fleet.link` gets the hostile
  // flags below only in LinkedFleetConfig. policy.phase_quanta (--quanta)
  // also budgets a workload.
  FleetConfig fleet;
  FleetdPolicy policy;
  FleetProvisionConfig provision;
  HostileMode hostile = HostileMode::kNone;
  uint32_t hostile_ppm = 150'000;
  uint32_t corrupt_ppm = 0;
  uint32_t replay_ppm = 0;
  uint32_t reflect_ppm = 0;
  std::string trace_json;
  bool stats = false;
  bool quiet = false;
  // Session flags: `workload` rejects them.
  int epochs = 3;
  std::vector<std::string> update_images;
  int canary_pct = 10;
  bool update_tamper_canary = false;
  std::vector<std::pair<std::string, std::string>> config_entries;
  int scale_up = 0;
  std::string status_json;
  bool watch = false;
  std::string transcript;
};

// Stores the value of one flag, or prints why it cannot.
using FlagSetter =
    std::function<bool(const std::string& flag, const std::string& value)>;

template <typename T>
FlagSetter Number(T* out) {
  return [out](const std::string& flag, const std::string& text) {
    return ParseNumber("tlfleetd", flag, text, out);
  };
}

FlagSetter Text(std::string* out) {
  return [out](const std::string&, const std::string& text) {
    *out = text;
    return true;
  };
}

template <typename T>
FlagSetter OneOf(T* out, std::vector<std::pair<std::string, T>> names) {
  return [out, names](const std::string& flag, const std::string& text) {
    for (const auto& [name, value] : names) {
      if (text == name) {
        *out = value;
        return true;
      }
    }
    std::fprintf(stderr, "tlfleetd: %s: unknown value '%s'\n", flag.c_str(),
                 text.c_str());
    return false;
  };
}

bool ParseOptions(const std::vector<std::string>& args, Options* opt) {
  struct Flag {
    const char* name;
    bool session;    // Configures run phases: `workload` rejects it.
    bool* on;        // A switch sets this; a valued flag has `set`.
    FlagSetter set;
  };
  const Flag flags[] = {
      {"--nodes", false, nullptr, Number(&opt->fleet.nodes)},
      {"--topology", false, nullptr,
       OneOf(&opt->fleet.topology,
             {{"star", Topology::kStar}, {"ring", Topology::kRing}})},
      {"--seed", false, nullptr, Number(&opt->fleet.seed)},
      {"--threads", false, nullptr, Number(&opt->fleet.threads)},
      {"--quantum", false, nullptr, Number(&opt->fleet.quantum)},
      {"--quanta", false, nullptr, Number(&opt->policy.phase_quanta)},
      {"--batch-quanta", false, nullptr,
       Number(&opt->fleet.harvest_batch_quanta)},
      {"--latency", false, nullptr, Number(&opt->fleet.link.latency_cycles)},
      {"--loss-ppm", false, nullptr, Number(&opt->fleet.link.loss_ppm)},
      {"--reorder-ppm", false, nullptr, Number(&opt->fleet.link.reorder_ppm)},
      {"--hostile", false, nullptr,
       OneOf(&opt->hostile, {{"corrupt", HostileMode::kCorrupt},
                             {"replay", HostileMode::kReplay},
                             {"reflect", HostileMode::kReflect},
                             {"all", HostileMode::kAll}})},
      {"--hostile-ppm", false, nullptr, Number(&opt->hostile_ppm)},
      {"--corrupt-ppm", false, nullptr, Number(&opt->corrupt_ppm)},
      {"--replay-ppm", false, nullptr, Number(&opt->replay_ppm)},
      {"--reflect-ppm", false, nullptr, Number(&opt->reflect_ppm)},
      {"--trace-json", false, nullptr, Text(&opt->trace_json)},
      {"--stats", false, &opt->stats, nullptr},
      {"--quiet", false, &opt->quiet, nullptr},
      {"--epochs", true, nullptr, Number(&opt->epochs)},
      {"--warm-boot", true, &opt->provision.warm_boot, nullptr},
      {"--tamper", true, nullptr, Number(&opt->provision.tamper_count)},
      {"--update-image", true, nullptr,
       [opt](const std::string&, const std::string& path) {
         opt->update_images.push_back(path);
         return true;
       }},
      {"--canary-pct", true, nullptr, Number(&opt->canary_pct)},
      {"--update-tamper-canary", true, &opt->update_tamper_canary, nullptr},
      {"--config", true, nullptr,
       [opt](const std::string&, const std::string& entry) {
         const size_t eq = entry.find('=');
         if (eq == std::string::npos || eq == 0) {
           std::fprintf(stderr,
                        "tlfleetd: --config needs KEY=VAL, got '%s'\n",
                        entry.c_str());
           return false;
         }
         opt->config_entries.emplace_back(entry.substr(0, eq),
                                          entry.substr(eq + 1));
         return true;
       }},
      {"--scale-up", true, nullptr, Number(&opt->scale_up)},
      {"--idle-quanta", true, nullptr,
       Number(&opt->policy.epoch_idle_quanta)},
      {"--beacon-quanta", true, nullptr,
       Number(&opt->policy.beacon_every_quanta)},
      {"--halt-on-quarantine", true, &opt->policy.halt_on_quarantine, nullptr},
      {"--status-json", true, nullptr, Text(&opt->status_json)},
      {"--watch", true, &opt->watch, nullptr},
      {"--transcript", true, nullptr, Text(&opt->transcript)},
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags) {
      flag = arg == candidate.name ? &candidate : flag;
    }
    if (flag == nullptr && arg.rfind("--", 0) != 0 && opt->guest.empty()) {
      opt->guest = arg;
    } else if (flag != nullptr && flag->session && opt->workload) {
      std::fprintf(stderr, "tlfleetd: workload does not take %s (a run "
                           "session flag)\n",
                   arg.c_str());
      return false;
    } else if (flag == nullptr ||
               (flag->on == nullptr && i + 1 == args.size())) {
      std::fprintf(stderr, "tlfleetd: bad argument '%s'\n", arg.c_str());
      return false;
    } else if (flag->on != nullptr) {
      *flag->on = true;
    } else if (!flag->set(arg, args[++i])) {
      return false;
    }
  }
  if (opt->fleet.nodes < 1 || opt->fleet.quantum == 0 ||
      opt->policy.phase_quanta == 0) {
    std::fprintf(stderr, "tlfleetd: need --nodes >= 1, --quantum > 0 and "
                         "--quanta > 0\n");
    return false;
  }
  // Upper bounds, before any node or worker thread exists (Fleet's own
  // node bound is an assert).
  if (opt->fleet.nodes > kMaxFleetNodes) {
    std::fprintf(stderr, "tlfleetd: --nodes must be at most %d (node ids "
                         "are 16-bit fabric ports)\n",
                 kMaxFleetNodes);
    return false;
  }
  if (opt->fleet.threads > kMaxThreads) {
    std::fprintf(stderr, "tlfleetd: --threads must be at most %d (0 = "
                         "hardware concurrency)\n",
                 kMaxThreads);
    return false;
  }
  if (opt->workload && opt->guest.empty()) {
    std::fprintf(stderr, "tlfleetd: workload needs a guest.s program\n");
    return false;
  }
  if (opt->canary_pct < 1 || opt->canary_pct > 100) {
    std::fprintf(stderr, "tlfleetd: --canary-pct must be in [1, 100]\n");
    return false;
  }
  if (opt->update_tamper_canary && opt->update_images.empty()) {
    std::fprintf(stderr,
                 "tlfleetd: --update-tamper-canary requires --update-image\n");
    return false;
  }
  // Clones join on fresh verifier links, which only a star wires
  // (Fleet::AddNode): fail before provisioning, not after admission.
  if (opt->scale_up > 0 && opt->fleet.topology == Topology::kRing) {
    std::fprintf(stderr, "tlfleetd: --scale-up needs --topology star, not "
                         "--topology ring\n");
    return false;
  }
  return true;
}

// The fleet config with the hostile link flags applied: the mode at
// --hostile-ppm, then any individual rate that is set.
FleetConfig LinkedFleetConfig(const Options& opt) {
  FleetConfig config = opt.fleet;
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
  return config;
}

// Assembles the guest program at kGuestOrigin; prints why on failure.
bool AssembleGuest(const std::string& path, AsmOutput* out) {
  std::string source;
  if (!ReadTextFile("tlfleetd", path, &source)) {
    return false;
  }
  Result<AsmOutput> guest = Assemble(source, kGuestOrigin);
  if (!guest.ok()) {
    std::fprintf(stderr, "tlfleetd: %s\n", guest.status().ToString().c_str());
    return false;
  }
  *out = std::move(*guest);
  return true;
}

// Writes `text` to `path`; unless --quiet, reports it as
// "<what>: wrote <path> (<detail>)".
bool WriteOutput(const Options& opt, const char* what, const std::string& path,
                 const std::string& text, const std::string& detail) {
  const Status written =
      WriteFileBytes(path, std::vector<uint8_t>(text.begin(), text.end()));
  if (!written.ok()) {
    std::fprintf(stderr, "tlfleetd: %s\n", written.ToString().c_str());
    return false;
  }
  if (!opt.quiet) {
    std::printf("%s: wrote %s (%s)\n", what, path.c_str(), detail.c_str());
  }
  return true;
}

// --trace-json: one Chrome trace process per node, merged into one file.
// Lanes cover the attestation image (FW, ATTN and OS code) in a session and
// each guest code chunk in a workload.
class FleetTrace {
 public:
  FleetTrace(const Options& opt, const AsmOutput& guest, Fleet* fleet)
      : opt_(opt), fleet_(fleet) {
    if (opt.trace_json.empty()) {
      return;
    }
    for (int i = 0; i < fleet->num_nodes(); ++i) {
      ChromeTraceWriter* writer = aggregator_.AddNode(i);
      writers_.push_back(writer);
      if (!opt.workload) {
        writer->AddLane("FW", 0x11000, 0x12000);
        writer->AddLane("ATTN", 0x15000, 0x16000);
        writer->AddLane("OS", 0x20000, 0x22000, /*is_os=*/true);
      } else {
        for (const AsmChunk& chunk : guest.chunks) {
          char lane[32];
          std::snprintf(lane, sizeof(lane), "code@%08x", chunk.base);
          writer->AddLane(lane, chunk.base,
                          chunk.base + static_cast<uint32_t>(
                                           chunk.bytes.size()));
        }
      }
      fleet->node(i).platform().AddEventSink(writer);
    }
  }

  // Detaches the writers and writes the merged trace, which must parse.
  bool Write() {
    if (opt_.trace_json.empty()) {
      return true;
    }
    for (size_t i = 0; i < writers_.size(); ++i) {
      // Writers are owned by the aggregator; detach before it serializes.
      fleet_->node(static_cast<int>(i)).platform().RemoveEventSink(
          writers_[i]);
    }
    const std::string json = aggregator_.Json();
    std::string json_error;
    const bool valid = JsonParses(json, &json_error);
    char detail[64];
    std::snprintf(detail, sizeof(detail), "%zu nodes, %zu events, ",
                  aggregator_.node_count(), aggregator_.event_count());
    return WriteOutput(opt_, "trace-json", opt_.trace_json, json,
                       detail + (valid ? "valid JSON" : json_error));
  }

 private:
  const Options& opt_;
  Fleet* fleet_;
  FleetTraceAggregator aggregator_;
  std::vector<ChromeTraceWriter*> writers_;
};

void PrintHeader(const Options& opt, const Fleet& fleet, const char* mode) {
  if (!opt.quiet) {
    std::printf("tlfleetd: %d node(s), seed %llu, %d thread(s), quantum "
                "%llu, %s\n",
                fleet.num_nodes(),
                static_cast<unsigned long long>(opt.fleet.seed),
                opt.fleet.threads,
                static_cast<unsigned long long>(opt.fleet.quantum),
                mode);
  }
}

// --stats: the per-node table, link totals, hostile counters and a row per
// link the adversary touched.
void PrintStats(const Options& opt, Fleet& fleet,
                const std::vector<FleetNodeStatsRow>& rows, double elapsed) {
  if (!opt.stats || opt.quiet) {
    return;
  }
  std::printf("%s", FormatFleetStats(rows, elapsed).c_str());
  const LinkFabric::Stats ls = fleet.fabric().stats();
  std::printf("links: sent %llu delivered %llu dropped %llu reordered %llu "
              "bytes %llu in-flight %zu\n",
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
  for (const LinkFabric::LinkStatsRow& row : fleet.fabric().PerLinkStats()) {
    if (row.corrupted == 0 && row.replayed == 0 && row.reflected == 0) {
      continue;
    }
    std::printf("link %d->%d: sent %llu corrupted %llu replayed %llu "
                "reflected %llu\n",
                row.src, row.dst, static_cast<unsigned long long>(row.sent),
                static_cast<unsigned long long>(row.corrupted),
                static_cast<unsigned long long>(row.replayed),
                static_cast<unsigned long long>(row.reflected));
  }
}

void PrintDigest(Fleet& fleet) {
  const Sha256Digest digest = fleet.FleetDigest();
  std::printf("fleet-digest: %s\n",
              HexEncode(digest.data(), digest.size()).c_str());
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int CmdRun(const Options& opt) {
  // Optional guest payload, measured into every node's FW trustlet.
  AsmOutput guest;
  if (!opt.guest.empty() && !AssembleGuest(opt.guest, &guest)) {
    return 1;
  }

  // Load and validate every update container up front: a malformed file
  // fails before the fleet spins up, and the provisioner sizes each node's
  // payload window to hold the largest image.
  std::vector<std::vector<uint8_t>> containers;
  uint32_t payload_capacity = 0;
  for (const std::string& path : opt.update_images) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "tlfleetd: %s\n",
                   bytes.status().ToString().c_str());
      return 1;
    }
    Result<FirmwareImage> image = ParseFirmware(*bytes);
    if (!image.ok()) {
      std::fprintf(stderr, "tlfleetd: %s: %s\n", path.c_str(),
                   image.status().ToString().c_str());
      return 1;
    }
    payload_capacity = std::max(
        payload_capacity, static_cast<uint32_t>(image->payload.size()));
    containers.push_back(std::move(*bytes));
  }

  Fleet fleet(LinkedFleetConfig(opt));
  FleetProvisionConfig prov = opt.provision;
  uint32_t guest_base = 0;
  prov.payload = guest.Flatten(&guest_base);
  prov.payload_capacity = payload_capacity;
  Result<std::vector<NodeProvision>> provisioned =
      ProvisionAttestationFleet(&fleet, prov);
  if (!provisioned.ok()) {
    std::fprintf(stderr, "tlfleetd: provisioning failed: %s\n",
                 provisioned.status().ToString().c_str());
    return 1;
  }

  FleetController controller(&fleet, std::move(*provisioned), opt.policy);
  PrintHeader(opt, fleet, opt.provision.warm_boot ? "warm-provisioned"
                                                  : "cold-provisioned");
  FleetTrace trace(opt, guest, &fleet);

  auto phase_note = [&](const char* phase, const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "tlfleetd: %s: %s\n", phase,
                   status.ToString().c_str());
    }
    if (opt.watch) {
      std::printf("%s\n", controller.WatchSummary().c_str());
    }
    return status.ok();
  };
  // --update-tamper-canary: MVAM-style mid-campaign tamper. Flip one code
  // bit on the first canary of the first campaign just as its
  // re-attestation starts. The challenge beats the tamper to the wire but
  // not to the node, so the report is computed over the flipped code and
  // never verifies.
  int tampered_canary = -1;
  auto tamper_canary = [&](const UpdateCampaign& campaign) {
    if (opt.update_tamper_canary && controller.campaigns().size() == 1 &&
        tampered_canary < 0 &&
        campaign.phase() == UpdatePhase::kCanaryVerify) {
      tampered_canary = campaign.canaries().front();
      // Marks only this copy tampered; the plan check reads tampered_canary.
      NodeProvision copy = controller.attestor().provision(tampered_canary);
      (void)TamperNode(fleet.node(tampered_canary), &copy);
    }
  };

  // Lifecycle. A failing phase ends the session (the roster is no longer
  // what the operator asked for); status epochs and transcripts for the
  // phases that did run are still written below.
  const auto start = std::chrono::steady_clock::now();
  bool ok = phase_note("admission", controller.RunAdmission());
  for (int epoch = 0; ok && epoch < opt.epochs; ++epoch) {
    ok = phase_note("reattest", controller.RunReattestEpoch());
  }
  for (size_t k = 0; ok && k < containers.size(); ++k) {
    ok = phase_note("update",
                    controller.RunUpdate(std::move(containers[k]),
                                         opt.canary_pct, tamper_canary));
  }
  if (ok && !opt.config_entries.empty()) {
    ok = phase_note("config-push", controller.PushConfig(opt.config_entries));
  }
  if (ok && opt.scale_up > 0) {
    ok = phase_note("scale-up", controller.ScaleUp(opt.scale_up));
  }
  if (ok) {
    controller.Drain();
    if (opt.watch) {
      std::printf("%s\n", controller.WatchSummary().c_str());
    }
  }
  const double elapsed = SecondsSince(start);

  // Verdicts against the tamper plan.
  std::vector<FleetNodeStatsRow> rows = fleet.SummaryRows();
  bool plan_ok = true;
  for (int i = 0; i < controller.num_nodes(); ++i) {
    const bool tampered =
        controller.attestor().provision(i).tampered || i == tampered_canary;
    const RosterState roster = controller.health(i).roster;
    plan_ok = plan_ok && roster == (tampered ? RosterState::kQuarantined
                                             : RosterState::kAdmitted);
    rows[static_cast<size_t>(i)].state =
        std::string(RosterStateName(roster)) + (tampered ? " (tampered)" : "");
  }

  if (!opt.quiet) {
    std::printf("session: %s — epochs=%d nodes=%d admitted=%zu "
                "quarantined=%zu gen=%u (%llu quanta, %llu cycles)\n",
                ok ? "complete" : "FAILED", controller.epochs(),
                controller.num_nodes(), controller.Admitted().size(),
                controller.Quarantined().size(),
                controller.config_generation(),
                static_cast<unsigned long long>(controller.quanta_run()),
                static_cast<unsigned long long>(fleet.now()));
  }
  PrintStats(opt, fleet, rows, elapsed);
  const std::vector<UpdateCampaign>& campaigns = controller.campaigns();
  for (size_t k = 0; k < campaigns.size(); ++k) {
    const UpdateCampaign& campaign = campaigns[k];
    std::printf("update[%zu]: version=%u phase=%s committed=%d "
                "rolledback=%d quarantined=%d rejected=%d canaries=%zu\n",
                k, campaign.fw_version(), UpdatePhaseName(campaign.phase()),
                campaign.CountInState(UpdateNodeState::kCommitted),
                campaign.CountInState(UpdateNodeState::kRolledBack),
                campaign.CountInState(UpdateNodeState::kQuarantined),
                campaign.CountInState(UpdateNodeState::kRejected),
                campaign.canaries().size());
  }
  PrintDigest(fleet);

  if (!opt.status_json.empty()) {
    std::string epochs;
    for (const std::string& epoch : controller.status_epochs()) {
      epochs += epoch;
      epochs += '\n';
    }
    if (!WriteOutput(opt, "status-json", opt.status_json, epochs,
                     std::to_string(controller.status_epochs().size()) +
                         " epoch(s)")) {
      return 1;
    }
  }
  if (!opt.transcript.empty()) {
    std::string full = controller.attestor().transcript();
    for (size_t k = 0; k < campaigns.size(); ++k) {
      full += "--- update campaign " + std::to_string(k) + " ---\n";
      full += campaigns[k].transcript();
    }
    full += "--- fleetd ---\n";
    full += controller.transcript();
    if (!WriteOutput(opt, "transcript", opt.transcript, full,
                     std::to_string(full.size()) + " bytes")) {
      return 1;
    }
  }
  if (!trace.Write()) {
    return 1;
  }
  if (ok && !plan_ok) {
    std::fprintf(stderr, "tlfleetd: the roster does not match the tamper "
                         "plan\n");
  }
  return ok && plan_ok ? 0 : 1;
}

int CmdWorkload(const Options& opt) {
  AsmOutput guest;
  if (!AssembleGuest(opt.guest, &guest)) {
    return 1;
  }
  Fleet fleet(LinkedFleetConfig(opt));
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    Platform& platform = fleet.node(i).platform();
    for (const AsmChunk& chunk : guest.chunks) {
      if (!platform.bus().HostWriteBytes(chunk.base, chunk.bytes)) {
        std::fprintf(stderr, "tlfleetd: chunk at 0x%08x unmapped\n",
                     chunk.base);
        return 1;
      }
    }
    uint32_t entry = guest.chunks.empty() ? 0 : guest.chunks.front().base;
    auto it = guest.symbols.find("start");
    if (it != guest.symbols.end()) {
      entry = it->second;
    }
    platform.cpu().Reset(entry);
    platform.cpu().set_reg(kRegSp, kGuestSp);
    platform.ReleaseThreadAffinity();
  }
  const std::string mode =
      std::string(TopologyName(opt.fleet.topology)) + " workload";
  PrintHeader(opt, fleet, mode.c_str());
  FleetTrace trace(opt, guest, &fleet);

  // One phase: run until every node halted with the links empty, or the
  // budget is spent.
  const auto start = std::chrono::steady_clock::now();
  uint64_t quanta = 0;
  auto settled = [&] {
    return fleet.AllHalted() && fleet.fabric().in_flight() == 0;
  };
  for (; quanta < opt.policy.phase_quanta && !settled(); ++quanta) {
    fleet.RunQuantum();
  }
  const double elapsed = SecondsSince(start);

  if (!opt.quiet) {
    std::printf("workload: %s — nodes=%d (%llu quanta, %llu cycles)\n",
                settled() ? "halted" : "budget spent", fleet.num_nodes(),
                static_cast<unsigned long long>(quanta),
                static_cast<unsigned long long>(fleet.now()));
  }
  PrintStats(opt, fleet, fleet.SummaryRows(), elapsed);
  PrintDigest(fleet);
  return trace.Write() ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    return Usage(/*help=*/true);
  }
  if (command != "run" && command != "workload") {
    return Usage();
  }
  Options opt;
  opt.workload = command == "workload";
  if (!ParseOptions(std::vector<std::string>(argv + 2, argv + argc), &opt)) {
    return 2;
  }
  return opt.workload ? CmdWorkload(opt) : CmdRun(opt);
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
