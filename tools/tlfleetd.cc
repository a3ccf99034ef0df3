// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfleetd — fleet control-plane daemon (DESIGN.md §17, docs/FLEET.md).
//
//   tlfleetd run [guest.s] --nodes N [--seed S] [--threads T] [--epochs E]
//                [--quantum Q] [--batch-quanta K] [--warm-boot] [--tamper K]
//                [--config KEY=VAL]... [--scale-up K]
//                [--latency C] [--loss-ppm P] [--reorder-ppm P]
//                [--hostile corrupt|replay|reflect|all] [--hostile-ppm P]
//                [--corrupt-ppm P] [--replay-ppm P] [--reflect-ppm P]
//                [--idle-quanta Q] [--beacon-quanta K] [--phase-quanta Q]
//                [--halt-on-quarantine] [--status-json FILE] [--watch]
//                [--transcript FILE] [--quiet]
//
// Where tlfleet runs one attestation round and exits, tlfleetd owns the
// fleet across a whole operator session:
//
//   provision -> admission -> E re-attestation epochs -> config push ->
//   snapshot scale-up -> drain
//
// Every phase appends one JSON status epoch (--status-json writes them
// newline-delimited) and a --watch summary line. All verdicts, transcripts
// and the final fleet digest are bit-identical across --threads for a fixed
// seed; hostile-link modes and --halt-on-quarantine carry over from tlfleet
// unchanged. Star topology only: the control plane is hub-and-spoke by
// construction, and live scale-up cannot splice a ring.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/fleet/control.h"
#include "src/fleet/fleet.h"
#include "src/fleet/link.h"
#include "src/fleet/provision.h"
#include "src/harness/fleet_campaign.h"
#include "src/isa/assembler.h"
#include "tools/cli.h"

namespace trustlite {
namespace {

constexpr uint32_t kGuestOrigin = 0x0003'0000;

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlfleetd run [guest.s] --nodes N [--seed S] [--threads T]\n"
      "               [--epochs E] [--quantum Q] [--batch-quanta K]\n"
      "               [--warm-boot] [--tamper K] [--config KEY=VAL]...\n"
      "               [--scale-up K] [--latency C] [--loss-ppm P]\n"
      "               [--reorder-ppm P] [--hostile MODE] [--hostile-ppm P]\n"
      "               [--corrupt-ppm P] [--replay-ppm P] [--reflect-ppm P]\n"
      "               [--idle-quanta Q] [--beacon-quanta K]\n"
      "               [--phase-quanta Q] [--halt-on-quarantine]\n"
      "               [--status-json FILE] [--watch] [--transcript FILE]\n"
      "               [--quiet]\n"
      "\n"
      "  lifecycle: provision -> attestation-gated admission -> E\n"
      "  re-attestation epochs -> config push (with --config) -> snapshot\n"
      "  scale-up (with --scale-up) -> drain (docs/FLEET.md)\n"
      "\n"
      "  --epochs E   periodic re-attestation epochs after admission\n"
      "               (default 3); each idles --idle-quanta quanta first\n"
      "  --config KEY=VAL  push this config entry to every admitted node\n"
      "               (repeatable; one CRC-framed 0xC6 push, digest-checked\n"
      "               acks, then a re-measuring attestation round)\n"
      "  --scale-up K  clone K new nodes from admitted sources by snapshot\n"
      "               restore + in-place re-key, then re-attest and admit\n"
      "  --beacon-quanta K  node health agents beacon every K quanta\n"
      "               (0 disables beacons; default 8)\n"
      "  --idle-quanta Q  idle quanta between epochs (default 32)\n"
      "  --phase-quanta Q  budget per phase before it fails closed\n"
      "               (default 4000)\n"
      "  --status-json FILE  write one JSON object per completed phase,\n"
      "               newline-delimited (stable schema: docs/FLEET.md)\n"
      "  --watch      print a one-line roster summary after every phase\n"
      "  --halt-on-quarantine  stop the session with an error as soon as\n"
      "               any phase quarantines a node\n"
      "  --transcript FILE  write the attestor + controller transcripts\n"
      "               (bit-identical across --threads for a fixed seed)\n");
  return help ? 0 : 2;
}

struct Options {
  std::string guest;
  int nodes = 4;
  uint64_t seed = 1;
  int threads = 1;
  int epochs = 3;
  uint64_t quantum = 20'000;
  uint32_t batch_quanta = 1;
  bool warm_boot = false;
  int tamper = 0;
  std::vector<std::pair<std::string, std::string>> config_entries;
  int scale_up = 0;
  uint32_t latency = 1'000;
  uint32_t loss_ppm = 0;
  uint32_t reorder_ppm = 0;
  HostileMode hostile = HostileMode::kNone;
  uint32_t hostile_ppm = 150'000;
  uint32_t corrupt_ppm = 0;
  uint32_t replay_ppm = 0;
  uint32_t reflect_ppm = 0;
  uint64_t idle_quanta = 32;
  uint32_t beacon_quanta = 8;
  uint64_t phase_quanta = 4'000;
  bool halt_on_quarantine = false;
  std::string status_json;
  bool watch = false;
  std::string transcript;
  bool quiet = false;
};

bool ParseOptions(const std::vector<std::string>& args, Options* opt) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    auto number = [&](auto* out) {
      return ParseNumber("tlfleetd", arg, args[++i], out);
    };
    bool ok = true;
    if (arg == "--nodes" && has_value) {
      ok = number(&opt->nodes);
    } else if (arg == "--seed" && has_value) {
      ok = number(&opt->seed);
    } else if (arg == "--threads" && has_value) {
      ok = number(&opt->threads);
    } else if (arg == "--epochs" && has_value) {
      ok = number(&opt->epochs);
    } else if (arg == "--quantum" && has_value) {
      ok = number(&opt->quantum);
    } else if (arg == "--batch-quanta" && has_value) {
      ok = number(&opt->batch_quanta);
    } else if (arg == "--warm-boot") {
      opt->warm_boot = true;
    } else if (arg == "--tamper" && has_value) {
      ok = number(&opt->tamper);
    } else if (arg == "--config" && has_value) {
      const std::string& entry = args[++i];
      const size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "tlfleetd: --config needs KEY=VAL, got '%s'\n",
                     entry.c_str());
        return false;
      }
      opt->config_entries.emplace_back(entry.substr(0, eq),
                                       entry.substr(eq + 1));
    } else if (arg == "--scale-up" && has_value) {
      ok = number(&opt->scale_up);
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
        std::fprintf(stderr, "tlfleetd: unknown hostile mode '%s'\n",
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
    } else if (arg == "--idle-quanta" && has_value) {
      ok = number(&opt->idle_quanta);
    } else if (arg == "--beacon-quanta" && has_value) {
      ok = number(&opt->beacon_quanta);
    } else if (arg == "--phase-quanta" && has_value) {
      ok = number(&opt->phase_quanta);
    } else if (arg == "--halt-on-quarantine") {
      opt->halt_on_quarantine = true;
    } else if (arg == "--status-json" && has_value) {
      opt->status_json = args[++i];
    } else if (arg == "--watch") {
      opt->watch = true;
    } else if (arg == "--transcript" && has_value) {
      opt->transcript = args[++i];
    } else if (arg == "--quiet") {
      opt->quiet = true;
    } else if (arg.rfind("--", 0) != 0 && opt->guest.empty()) {
      opt->guest = arg;
    } else {
      std::fprintf(stderr, "tlfleetd: bad argument '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) {
      return false;
    }
  }
  if (opt->nodes < 1 || opt->quantum == 0) {
    std::fprintf(stderr, "tlfleetd: need --nodes >= 1 and --quantum > 0\n");
    return false;
  }
  if (opt->phase_quanta == 0) {
    std::fprintf(stderr, "tlfleetd: --phase-quanta must be > 0\n");
    return false;
  }
  return true;
}

int CmdRun(const std::vector<std::string>& args) {
  Options opt;
  if (!ParseOptions(args, &opt)) {
    return 2;
  }

  // Optional guest payload, measured into every node's FW trustlet.
  std::vector<uint8_t> guest_image;
  if (!opt.guest.empty()) {
    std::string source;
    if (!ReadTextFile("tlfleetd", opt.guest, &source)) {
      return 1;
    }
    Result<AsmOutput> guest = Assemble(source, kGuestOrigin);
    if (!guest.ok()) {
      std::fprintf(stderr, "tlfleetd: %s\n",
                   guest.status().ToString().c_str());
      return 1;
    }
    uint32_t base = 0;
    guest_image = guest->Flatten(&base);
  }

  FleetConfig config;
  config.nodes = opt.nodes;
  config.topology = Topology::kStar;
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

  FleetProvisionConfig prov;
  prov.payload = guest_image;
  prov.tamper_count = opt.tamper;
  prov.warm_boot = opt.warm_boot;
  Result<std::vector<NodeProvision>> provisioned =
      ProvisionAttestationFleet(&fleet, prov);
  if (!provisioned.ok()) {
    std::fprintf(stderr, "tlfleetd: provisioning failed: %s\n",
                 provisioned.status().ToString().c_str());
    return 1;
  }

  FleetdPolicy policy;
  policy.phase_quanta = opt.phase_quanta;
  policy.epoch_idle_quanta = opt.idle_quanta;
  policy.beacon_every_quanta = opt.beacon_quanta;
  policy.halt_on_quarantine = opt.halt_on_quarantine;
  FleetController controller(&fleet, std::move(*provisioned), policy);

  if (!opt.quiet) {
    std::printf("tlfleetd: %d node(s), seed %llu, %d thread(s), quantum "
                "%llu, %s-provisioned\n",
                fleet.num_nodes(), static_cast<unsigned long long>(opt.seed),
                opt.threads, static_cast<unsigned long long>(opt.quantum),
                opt.warm_boot ? "warm" : "cold");
  }

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

  // Lifecycle. A failing phase ends the session (the roster is no longer
  // what the operator asked for); status epochs and transcripts for the
  // phases that did run are still written below.
  bool ok = phase_note("admission", controller.RunAdmission());
  for (int epoch = 0; ok && epoch < opt.epochs; ++epoch) {
    ok = phase_note("reattest", controller.RunReattestEpoch());
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
  const Sha256Digest digest = fleet.FleetDigest();
  std::printf("fleet-digest: %s\n",
              HexEncode(digest.data(), digest.size()).c_str());

  if (!opt.status_json.empty()) {
    std::ofstream out(opt.status_json, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tlfleetd: cannot write %s\n",
                   opt.status_json.c_str());
      return 1;
    }
    for (const std::string& epoch : controller.status_epochs()) {
      out << epoch << '\n';
    }
    if (!opt.quiet) {
      std::printf("status-json: wrote %s (%zu epoch(s))\n",
                  opt.status_json.c_str(), controller.status_epochs().size());
    }
  }

  if (!opt.transcript.empty()) {
    std::ofstream out(opt.transcript, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "tlfleetd: cannot write %s\n",
                   opt.transcript.c_str());
      return 1;
    }
    std::string full = controller.attestor().transcript();
    full += "--- fleetd ---\n";
    full += controller.transcript();
    out << full;
    if (!opt.quiet) {
      std::printf("transcript: wrote %s (%zu bytes)\n",
                  opt.transcript.c_str(), full.size());
    }
  }

  return ok ? 0 : 1;
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
