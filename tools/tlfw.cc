// Copyright 2026 The TrustLite Reproduction Authors.
//
// tlfw — firmware update container utility (docs/UPDATE_FORMAT.md).
//
//   tlfw pack   <out.tlfw> --version N [opts]     build a container
//   tlfw info   <file.tlfw>                       inventory + measurement
//   tlfw verify <file.tlfw> [key opts]            parse/CRC/measurement
//                                                 (+ signature with a key)
//   tlfw sign   <in.tlfw> <out.tlfw> <key opts>   attach an HMAC signature
//
// Payload sources for pack: --payload-file <f> embeds a file verbatim;
// --payload-seed <s> --payload-bytes <n> generates a deterministic
// xoshiro256** byte stream (self-contained test/CI images).
//
// Key options: --key-hex <64 hex chars> names a raw 32-byte device key;
// --fleet-seed <s> --node <i> derives the same per-device key the fleet
// provisioner uses, so a container signed here verifies on that fleet
// node. Signing always uses the derived *update* key family, never the
// device key directly.

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/fleet/provision.h"
#include "src/update/fw_container.h"
#include "tools/cli.h"

namespace trustlite {
namespace {

int Usage(bool help = false) {
  std::fprintf(
      help ? stdout : stderr,
      "usage:\n"
      "  tlfw pack   <out.tlfw> --version <n> [--name <s>]\n"
      "              [--chunk-bytes <n>]\n"
      "              (--payload-file <f> | --payload-seed <s> "
      "--payload-bytes <n>)\n"
      "  tlfw info   <file.tlfw>\n"
      "  tlfw verify <file.tlfw> [--key-hex <hex64> | --fleet-seed <s> "
      "--node <i>]\n"
      "  tlfw sign   <in.tlfw> <out.tlfw> (--key-hex <hex64> | "
      "--fleet-seed <s> --node <i>)\n");
  return help ? 0 : 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "tlfw: %s\n", status.ToString().c_str());
  return 1;
}

struct KeyOptions {
  bool present = false;
  std::array<uint8_t, 32> device_key{};
};

// Shared option state across subcommands; unknown flags are usage errors.
struct Options {
  uint32_t version = 0;
  std::string name;
  uint32_t chunk_bytes = 512;
  std::string payload_file;
  uint64_t payload_seed = 0;
  bool payload_seed_set = false;
  uint32_t payload_bytes = 0;
  KeyOptions key;
  std::vector<std::string> positional;
};

bool ParseHexKey(const std::string& hex, std::array<uint8_t, 32>* key) {
  if (hex.size() != 64) {
    return false;
  }
  for (size_t i = 0; i < 32; ++i) {
    unsigned value = 0;
    if (std::sscanf(hex.c_str() + 2 * i, "%2x", &value) != 1) {
      return false;
    }
    (*key)[i] = static_cast<uint8_t>(value);
  }
  return true;
}

bool ParseOptions(int argc, char** argv, int from, Options* opts) {
  uint64_t fleet_seed = 0;
  bool fleet_seed_set = false;
  int node = -1;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tlfw: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](auto* out) {
      const char* v = next(arg.c_str());
      return v != nullptr && ParseNumber("tlfw", arg, v, out);
    };
    if (arg == "--version") {
      if (!number(&opts->version)) return false;
    } else if (arg == "--name") {
      const char* v = next("--name");
      if (v == nullptr) return false;
      opts->name = v;
    } else if (arg == "--chunk-bytes") {
      if (!number(&opts->chunk_bytes)) return false;
    } else if (arg == "--payload-file") {
      const char* v = next("--payload-file");
      if (v == nullptr) return false;
      opts->payload_file = v;
    } else if (arg == "--payload-seed") {
      if (!number(&opts->payload_seed)) return false;
      opts->payload_seed_set = true;
    } else if (arg == "--payload-bytes") {
      if (!number(&opts->payload_bytes)) return false;
    } else if (arg == "--key-hex") {
      const char* v = next("--key-hex");
      if (v == nullptr) return false;
      if (!ParseHexKey(v, &opts->key.device_key)) {
        std::fprintf(stderr, "tlfw: --key-hex wants 64 hex characters\n");
        return false;
      }
      opts->key.present = true;
    } else if (arg == "--fleet-seed") {
      if (!number(&fleet_seed)) return false;
      fleet_seed_set = true;
    } else if (arg == "--node") {
      if (!number(&node)) return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tlfw: unknown flag %s\n", arg.c_str());
      return false;
    } else {
      opts->positional.push_back(arg);
    }
  }
  if (fleet_seed_set || node >= 0) {
    if (!fleet_seed_set || node < 0) {
      std::fprintf(stderr,
                   "tlfw: --fleet-seed and --node go together\n");
      return false;
    }
    if (opts->key.present) {
      std::fprintf(stderr, "tlfw: --key-hex conflicts with --fleet-seed\n");
      return false;
    }
    opts->key.device_key = DeriveDeviceKey(fleet_seed, node);
    opts->key.present = true;
  }
  return true;
}

std::vector<uint8_t> GeneratePayload(uint64_t seed, uint32_t bytes) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> payload;
  payload.reserve(bytes);
  while (payload.size() < bytes) {
    uint64_t word = rng.Next64();
    for (int b = 0; b < 8 && payload.size() < bytes; ++b) {
      payload.push_back(static_cast<uint8_t>(word >> (8 * b)));
    }
  }
  return payload;
}

void PrintImage(const FirmwareImage& image) {
  std::printf("  version: %u\n", image.fw_version);
  if (!image.name.empty()) {
    std::printf("  name: %s\n", image.name.c_str());
  }
  std::printf("  payload: %zu bytes\n", image.payload.size());
  std::printf("  measurement: %s\n",
              HexEncode(image.measurement.data(), image.measurement.size())
                  .c_str());
  std::printf("  signature: %s\n",
              image.has_signature
                  ? HexEncode(image.signature.data(), image.signature.size())
                        .c_str()
                  : "(unsigned)");
}

int CmdPack(const Options& opts) {
  if (opts.positional.size() != 1 || opts.version == 0) {
    return Usage();
  }
  FirmwareContainerSpec spec;
  spec.fw_version = opts.version;
  spec.name = opts.name;
  spec.chunk_bytes = opts.chunk_bytes;
  if (!opts.payload_file.empty()) {
    Result<std::vector<uint8_t>> payload = ReadFileBytes(opts.payload_file);
    if (!payload.ok()) {
      return Fail(payload.status());
    }
    spec.payload = std::move(*payload);
  } else if (opts.payload_seed_set && opts.payload_bytes > 0) {
    spec.payload = GeneratePayload(opts.payload_seed, opts.payload_bytes);
  } else {
    std::fprintf(stderr, "tlfw: pack needs --payload-file or "
                         "--payload-seed + --payload-bytes\n");
    return 2;
  }
  Result<std::vector<uint8_t>> container = PackFirmware(spec);
  if (!container.ok()) {
    return Fail(container.status());
  }
  Status written = WriteFileBytes(opts.positional[0], *container);
  if (!written.ok()) {
    return Fail(written);
  }
  std::printf("wrote %s (%zu bytes, version %u, payload %zu bytes)\n",
              opts.positional[0].c_str(), container->size(), spec.fw_version,
              spec.payload.size());
  return 0;
}

int CmdInfo(const Options& opts) {
  if (opts.positional.size() != 1) {
    return Usage();
  }
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(opts.positional[0]);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<FirmwareContainerInfo> info = InspectFirmware(*bytes);
  if (!info.ok()) {
    return Fail(info.status());
  }
  std::printf("%s: format %u, %zu chunks, %zu bytes\n",
              opts.positional[0].c_str(), info->format_version,
              info->chunks.size(), info->container_bytes);
  for (const FirmwareChunkInfo& chunk : info->chunks) {
    std::printf("  %s\n", chunk.label.c_str());
  }
  PrintImage(info->image);
  return 0;
}

int CmdVerify(const Options& opts) {
  if (opts.positional.size() != 1) {
    return Usage();
  }
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(opts.positional[0]);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<FirmwareImage> image = ParseFirmware(*bytes);
  if (!image.ok()) {
    return Fail(image.status());
  }
  if (opts.key.present) {
    const Status verified =
        VerifyFirmwareSignature(*image, DeriveUpdateKey(opts.key.device_key));
    if (!verified.ok()) {
      return Fail(verified);
    }
    std::printf("%s: ok (framing, measurement and signature verified)\n",
                opts.positional[0].c_str());
  } else {
    std::printf("%s: ok (framing and measurement verified; no key given%s)\n",
                opts.positional[0].c_str(),
                image->has_signature ? ", signature unchecked" : ", unsigned");
  }
  return 0;
}

int CmdSign(const Options& opts) {
  if (opts.positional.size() != 2 || !opts.key.present) {
    return Usage();
  }
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(opts.positional[0]);
  if (!bytes.ok()) {
    return Fail(bytes.status());
  }
  Result<std::vector<uint8_t>> signed_container =
      SignFirmware(*bytes, DeriveUpdateKey(opts.key.device_key));
  if (!signed_container.ok()) {
    return Fail(signed_container.status());
  }
  Status written = WriteFileBytes(opts.positional[1], *signed_container);
  if (!written.ok()) {
    return Fail(written);
  }
  std::printf("wrote %s (%zu bytes, signed)\n", opts.positional[1].c_str(),
              signed_container->size());
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
  Options opts;
  if (!ParseOptions(argc, argv, 2, &opts)) {
    return 2;
  }
  if (command == "pack") {
    return CmdPack(opts);
  }
  if (command == "info") {
    return CmdInfo(opts);
  }
  if (command == "verify") {
    return CmdVerify(opts);
  }
  if (command == "sign") {
    return CmdSign(opts);
  }
  return Usage();
}

}  // namespace
}  // namespace trustlite

int main(int argc, char** argv) { return trustlite::Main(argc, argv); }
