// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "src/common/bytes.h"
#include "src/mem/layout.h"

namespace trustlite {
namespace {

// Trap reasons are static strings and cannot travel through a byte format;
// a restored trap points here instead (nothing guest-visible consumes it).
constexpr const char* kRestoredTrapReason = "trap restored from snapshot";

// The shared chunk walk plus the snapshot's own sequence rule: PCFG first.
// Everything here fails before any state is touched — the fail-closed half
// of the format contract. `verify_checksums` = false skips only the CRC
// comparison; see SnapshotRestoreOptions::verify_checksums.
Status WalkSnapshot(const std::vector<uint8_t>& snapshot,
                    std::vector<Chunk>* chunks, bool verify_checksums = true) {
  TL_RETURN_IF_ERROR(
      WalkChunks(snapshot, kSnapshotFormat, chunks, verify_checksums));
  if (chunks->front().tag != kChunkPlatform) {
    return InvalidArgument("snapshot: first chunk is not PCFG");
  }
  return OkStatus();
}

// --- PCFG chunk ---

struct PlatformShape {
  uint8_t with_mpu = 0;
  uint8_t secure_exceptions = 0;
  uint8_t sanitize_faulting_ip = 0;
  uint8_t with_dma = 0;
  uint32_t mpu_regions = 0;
  uint32_t mpu_rules = 0;
  uint32_t dma_mode = 0;
  uint32_t dram_wait_states = 0;
  uint32_t sha_cycles_per_block = 0;
  uint32_t device_count = 0;
  uint32_t page_size = 0;
};

std::vector<uint8_t> EncodeShape(const Platform& platform) {
  const PlatformConfig& config = platform.config();
  std::vector<uint8_t> payload;
  payload.push_back(config.with_mpu ? 1 : 0);
  payload.push_back(config.secure_exceptions ? 1 : 0);
  payload.push_back(config.sanitize_faulting_ip ? 1 : 0);
  payload.push_back(config.with_dma ? 1 : 0);
  AppendLe32(payload, static_cast<uint32_t>(config.mpu_regions));
  AppendLe32(payload, static_cast<uint32_t>(config.mpu_rules));
  AppendLe32(payload, static_cast<uint32_t>(config.dma_mode));
  AppendLe32(payload, config.dram_wait_states);
  AppendLe32(payload, config.sha_cycles_per_block);
  AppendLe32(payload,
             static_cast<uint32_t>(
                 const_cast<Platform&>(platform).bus().devices().size()));
  AppendLe32(payload, kSnapshotPageSize);
  return payload;
}

Status DecodeShape(const Chunk& chunk, PlatformShape* shape) {
  ByteReader reader(chunk.data, chunk.size);
  reader.ReadU8(&shape->with_mpu);
  reader.ReadU8(&shape->secure_exceptions);
  reader.ReadU8(&shape->sanitize_faulting_ip);
  reader.ReadU8(&shape->with_dma);
  reader.ReadU32(&shape->mpu_regions);
  reader.ReadU32(&shape->mpu_rules);
  reader.ReadU32(&shape->dma_mode);
  reader.ReadU32(&shape->dram_wait_states);
  reader.ReadU32(&shape->sha_cycles_per_block);
  reader.ReadU32(&shape->device_count);
  reader.ReadU32(&shape->page_size);
  if (!reader.Done()) {
    return InvalidArgument("snapshot PCFG chunk malformed");
  }
  // Readers build a Platform from these fields (SnapshotPlatformConfig):
  // the EA-MPU constructor only asserts its bank sizes, and a DMA mode
  // outside the enum names no engine.
  if (shape->mpu_regions == 0 || shape->mpu_regions > kMpuMaxRegions ||
      shape->mpu_rules == 0 || shape->mpu_rules > kMpuMaxRules) {
    return InvalidArgument("snapshot PCFG: EA-MPU bank sizes out of range");
  }
  if (shape->dma_mode !=
          static_cast<uint32_t>(DmaEngine::Mode::kUnchecked) &&
      shape->dma_mode !=
          static_cast<uint32_t>(DmaEngine::Mode::kExecutionAware)) {
    return InvalidArgument("snapshot PCFG: unknown DMA mode");
  }
  return OkStatus();
}

Status CheckShape(const PlatformShape& shape, Platform& platform) {
  const PlatformConfig& config = platform.config();
  const auto mismatch = [](const std::string& what) {
    return FailedPrecondition(
        "snapshot was taken on a differently configured platform: " + what);
  };
  if ((shape.with_mpu != 0) != config.with_mpu) {
    return mismatch("EA-MPU presence differs");
  }
  if (config.with_mpu &&
      (shape.mpu_regions != static_cast<uint32_t>(config.mpu_regions) ||
       shape.mpu_rules != static_cast<uint32_t>(config.mpu_rules))) {
    return mismatch("EA-MPU bank sizes differ");
  }
  if ((shape.secure_exceptions != 0) != config.secure_exceptions ||
      (shape.sanitize_faulting_ip != 0) != config.sanitize_faulting_ip) {
    return mismatch("exception-engine configuration differs");
  }
  if ((shape.with_dma != 0) != config.with_dma) {
    return mismatch("DMA engine presence differs");
  }
  if (config.with_dma &&
      shape.dma_mode != static_cast<uint32_t>(config.dma_mode)) {
    return mismatch("DMA mode differs");
  }
  if (shape.dram_wait_states != config.dram_wait_states ||
      shape.sha_cycles_per_block != config.sha_cycles_per_block) {
    return mismatch("memory-system timing differs");
  }
  if (shape.device_count != platform.bus().devices().size()) {
    return mismatch("device count differs");
  }
  if (shape.page_size != kSnapshotPageSize) {
    return mismatch("snapshot page size differs");
  }
  return OkStatus();
}

// --- CPU chunk ---

std::vector<uint8_t> EncodeCpu(const Cpu& cpu) {
  const Cpu::ArchState state = cpu.SaveArchState();
  std::vector<uint8_t> payload;
  for (uint32_t reg : state.regs) {
    AppendLe32(payload, reg);
  }
  AppendLe32(payload, state.ip);
  AppendLe32(payload, state.prev_ip);
  AppendLe32(payload, state.flags);
  payload.push_back(state.halted ? 1 : 0);
  AppendLe64(payload, state.cycles);
  AppendLe32(payload, state.last_exception_entry_cycles);
  payload.push_back(state.trap.valid ? 1 : 0);
  AppendLe32(payload, state.trap.exception_class);
  AppendLe32(payload, state.trap.ip);
  AppendLe32(payload, state.trap.addr);
  AppendLe64(payload, state.instructions);
  AppendLe64(payload, state.exceptions);
  AppendLe64(payload, state.interrupts);
  AppendLe64(payload, state.trustlet_interrupts);
  return payload;
}

Status DecodeCpu(const Chunk& chunk, Cpu::ArchState* state) {
  ByteReader reader(chunk.data, chunk.size);
  for (uint32_t& reg : state->regs) {
    reader.ReadU32(&reg);
  }
  uint8_t halted = 0;
  uint8_t trap_valid = 0;
  reader.ReadU32(&state->ip);
  reader.ReadU32(&state->prev_ip);
  reader.ReadU32(&state->flags);
  reader.ReadU8(&halted);
  reader.ReadU64(&state->cycles);
  reader.ReadU32(&state->last_exception_entry_cycles);
  reader.ReadU8(&trap_valid);
  reader.ReadU32(&state->trap.exception_class);
  reader.ReadU32(&state->trap.ip);
  reader.ReadU32(&state->trap.addr);
  reader.ReadU64(&state->instructions);
  reader.ReadU64(&state->exceptions);
  reader.ReadU64(&state->interrupts);
  reader.ReadU64(&state->trustlet_interrupts);
  if (!reader.Done()) {
    return InvalidArgument("snapshot CPU chunk malformed");
  }
  state->halted = halted != 0;
  state->trap.valid = trap_valid != 0;
  state->trap.reason = state->trap.valid ? kRestoredTrapReason : "";
  return OkStatus();
}

// --- Zero-page walk (MEM chunks and the state digest) ---

static_assert(kSnapshotPageSize == kRamPageSize,
              "the page walk visits whole write-map pages");

constexpr uint8_t kZeroPage[kSnapshotPageSize] = {};

// Closes a memory's page list in the state digest: no page index is this.
constexpr uint32_t kDigestPagesEnd = 0xFFFFFFFF;

// Calls `visit(index, bytes, len)` for every page of `ram` that holds a
// non-zero byte, in ascending index order; the last page of a memory that
// is not a page multiple is short. Only pages the write map marks can hold
// one; a marked page may have been zeroed again, so each is still tested
// with a memcmp against a static zero page, the one zero test of the file.
template <typename Visit>
void ForEachNonZeroPage(const Ram& ram, Visit visit) {
  const std::span<const uint8_t> memory = ram.data();
  const std::span<const uint8_t> marks = ram.write_map();
  for (size_t index = 0; index < marks.size(); ++index) {
    if (marks[index] == 0) {
      continue;
    }
    const size_t offset = index * kSnapshotPageSize;
    const uint8_t* page = memory.data() + offset;
    const size_t len =
        std::min<size_t>(kSnapshotPageSize, memory.size() - offset);
    if (std::memcmp(page, kZeroPage, len) != 0) {
      visit(static_cast<uint32_t>(index), page, len);
    }
  }
}

// --- MEM chunks (zero-page elision) ---

std::vector<uint8_t> EncodeMemory(const Ram& ram) {
  std::vector<uint8_t> payload;
  AppendLe32(payload, static_cast<uint32_t>(ram.name().size()));
  payload.insert(payload.end(), ram.name().begin(), ram.name().end());
  AppendLe32(payload, ram.base());
  AppendLe32(payload, ram.size());
  // Only non-zero pages are kept; their count is patched in once known.
  const size_t count_at = payload.size();
  AppendLe32(payload, 0);
  uint32_t present = 0;
  ForEachNonZeroPage(ram, [&](uint32_t index, const uint8_t* page,
                              size_t len) {
    ++present;
    AppendLe32(payload, index);
    AppendLe32(payload, static_cast<uint32_t>(len));
    payload.insert(payload.end(), page, page + len);
  });
  StoreLe32(payload.data() + count_at, present);
  return payload;
}

struct MemoryImage {
  std::string name;
  uint32_t base = 0;
  uint32_t size = 0;
  struct Page {
    uint32_t index = 0;
    const uint8_t* data = nullptr;
    uint32_t len = 0;
  };
  std::vector<Page> pages;
  uint64_t bytes_present = 0;
};

Status DecodeMemory(const Chunk& chunk, MemoryImage* image) {
  ByteReader reader(chunk.data, chunk.size);
  uint32_t name_len = 0;
  reader.ReadU32(&name_len);
  if (!reader.ok() || !reader.ReadString(&image->name, name_len)) {
    return InvalidArgument("snapshot MEM chunk name malformed");
  }
  uint32_t num_pages = 0;
  reader.ReadU32(&image->base);
  reader.ReadU32(&image->size);
  reader.ReadU32(&num_pages);
  if (!reader.ok()) {
    return InvalidArgument("snapshot MEM chunk header malformed");
  }
  const uint32_t max_pages =
      (image->size + kSnapshotPageSize - 1) / kSnapshotPageSize;
  int64_t prev_index = -1;
  image->pages.reserve(num_pages);
  for (uint32_t i = 0; i < num_pages; ++i) {
    MemoryImage::Page page;
    reader.ReadU32(&page.index);
    reader.ReadU32(&page.len);
    if (!reader.ok() || page.index >= max_pages ||
        static_cast<int64_t>(page.index) <= prev_index ||
        page.len == 0 || page.len > kSnapshotPageSize ||
        uint64_t{page.index} * kSnapshotPageSize + page.len > image->size) {
      return InvalidArgument("snapshot MEM chunk '" + image->name +
                             "' page table malformed");
    }
    page.data = reader.cursor();
    if (!reader.Skip(page.len)) {
      return InvalidArgument("snapshot MEM chunk '" + image->name +
                             "' page payload truncated");
    }
    prev_index = page.index;
    image->bytes_present += page.len;
    image->pages.push_back(page);
  }
  if (!reader.Done()) {
    return InvalidArgument("snapshot MEM chunk '" + image->name +
                           "' has trailing bytes");
  }
  return OkStatus();
}

// --- DEV chunks ---

std::vector<uint8_t> EncodeDevice(Device& device) {
  std::vector<uint8_t> payload;
  AppendLe32(payload, static_cast<uint32_t>(device.name().size()));
  payload.insert(payload.end(), device.name().begin(), device.name().end());
  std::vector<uint8_t> state;
  device.SaveState(&state);
  AppendLe32(payload, static_cast<uint32_t>(state.size()));
  payload.insert(payload.end(), state.begin(), state.end());
  return payload;
}

struct DeviceState {
  std::string name;
  const uint8_t* data = nullptr;
  uint32_t size = 0;
};

Status DecodeDevice(const Chunk& chunk, DeviceState* state) {
  ByteReader reader(chunk.data, chunk.size);
  uint32_t name_len = 0;
  reader.ReadU32(&name_len);
  if (!reader.ok() || !reader.ReadString(&state->name, name_len)) {
    return InvalidArgument("snapshot DEV chunk name malformed");
  }
  reader.ReadU32(&state->size);
  state->data = reader.cursor();
  if (!reader.Skip(state->size) || !reader.Done()) {
    return InvalidArgument("snapshot DEV chunk '" + state->name +
                           "' payload malformed");
  }
  return OkStatus();
}

// --- DIGE chunk ---

Status DecodeDigest(const Chunk& chunk, bool* present, Sha256Digest* digest) {
  ByteReader reader(chunk.data, chunk.size);
  uint8_t flag = 0;
  reader.ReadU8(&flag);
  reader.ReadBytes(digest->data(), digest->size());
  if (!reader.Done()) {
    return InvalidArgument("snapshot DIGE chunk malformed");
  }
  *present = flag != 0;
  return OkStatus();
}

Device* FindDeviceByName(Platform& platform, const std::string& name) {
  for (Device* device : platform.bus().devices()) {
    if (device->name() == name) {
      return device;
    }
  }
  return nullptr;
}

}  // namespace

Sha256Digest PlatformStateDigest(const Platform& platform) {
  Platform& p = const_cast<Platform&>(platform);
  Sha256 hasher;
  uint8_t word[8];
  auto absorb32 = [&](uint32_t value) {
    StoreLe32(word, value);
    hasher.Update(word, 4);
  };
  // A memory is its non-zero pages, each as its index and its bytes, then
  // the end marker.
  auto absorb_pages = [&](const Ram& ram) {
    ForEachNonZeroPage(ram, [&](uint32_t index, const uint8_t* page,
                                size_t len) {
      absorb32(index);
      hasher.Update(page, len);
    });
    absorb32(kDigestPagesEnd);
  };
  const Cpu& cpu = p.cpu();
  for (int i = 0; i < kNumRegisters; ++i) {
    absorb32(cpu.reg(i));
  }
  absorb32(cpu.ip());
  absorb32(cpu.flags());
  absorb32(cpu.halted() ? 1 : 0);
  StoreLe32(word, static_cast<uint32_t>(cpu.cycles()));
  StoreLe32(word + 4, static_cast<uint32_t>(cpu.cycles() >> 32));
  hasher.Update(word, 8);
  absorb_pages(p.sram());
  absorb_pages(p.dram());
  absorb32(p.gpio().out());
  const std::string& uart = p.uart().output();
  hasher.Update(reinterpret_cast<const uint8_t*>(uart.data()), uart.size());
  return hasher.Finish();
}

Result<std::vector<uint8_t>> SavePlatform(Platform& platform,
                                          const SnapshotSaveOptions& options) {
  const std::vector<Device*>& devices = platform.bus().devices();
  uint32_t num_memories = 0;
  for (const Device* device : devices) {
    if (device->IsMemory()) {
      ++num_memories;
    }
  }
  // PCFG + CPU + one MEM per memory + one DEV per device + DIGE + END.
  const uint32_t chunk_count =
      2 + num_memories + static_cast<uint32_t>(devices.size()) + 2;

  std::vector<uint8_t> out;
  out.reserve(64 * 1024);
  AppendChunkHeader(out, kSnapshotFormat, chunk_count);

  AppendChunk(out, kChunkPlatform, EncodeShape(platform));
  AppendChunk(out, kChunkCpu, EncodeCpu(platform.cpu()));
  for (Device* device : devices) {
    if (device->IsMemory()) {
      // IsMemory() contract: memory-backed devices are Ram (or Prom).
      AppendChunk(out, kChunkMemory,
                  EncodeMemory(*static_cast<Ram*>(device)));
    }
  }
  for (Device* device : devices) {
    AppendChunk(out, kChunkDevice, EncodeDevice(*device));
  }
  std::vector<uint8_t> digest_payload;
  digest_payload.push_back(options.include_digest ? 1 : 0);
  if (options.include_digest) {
    const Sha256Digest digest = PlatformStateDigest(platform);
    digest_payload.insert(digest_payload.end(), digest.begin(), digest.end());
  } else {
    digest_payload.resize(1 + kSha256DigestSize, 0);
  }
  AppendChunk(out, kChunkDigest, digest_payload);
  AppendChunk(out, kChunkEnd, {});
  return out;
}

Status RestorePlatform(Platform* platform,
                       const std::vector<uint8_t>& snapshot,
                       const SnapshotRestoreOptions& options) {
  std::vector<Chunk> chunks;
  TL_RETURN_IF_ERROR(
      WalkSnapshot(snapshot, &chunks, options.verify_checksums));

  // Stage and validate everything — device payloads included — before the
  // first mutation.
  PlatformShape shape;
  TL_RETURN_IF_ERROR(DecodeShape(chunks.front(), &shape));
  TL_RETURN_IF_ERROR(CheckShape(shape, *platform));

  bool have_cpu = false;
  Cpu::ArchState cpu_state;
  std::vector<std::pair<Ram*, MemoryImage>> memories;
  std::vector<std::pair<Device*, DeviceState>> device_states;
  bool digest_present = false;
  Sha256Digest digest{};
  for (size_t i = 1; i + 1 < chunks.size(); ++i) {
    const Chunk& chunk = chunks[i];
    switch (chunk.tag) {
      case kChunkCpu: {
        if (have_cpu) {
          return InvalidArgument("snapshot has duplicate CPU chunk");
        }
        TL_RETURN_IF_ERROR(DecodeCpu(chunk, &cpu_state));
        have_cpu = true;
        break;
      }
      case kChunkMemory: {
        MemoryImage image;
        TL_RETURN_IF_ERROR(DecodeMemory(chunk, &image));
        Device* device = FindDeviceByName(*platform, image.name);
        if (device == nullptr || !device->IsMemory()) {
          return FailedPrecondition("snapshot memory '" + image.name +
                                    "' does not exist on this platform");
        }
        if (device->base() != image.base || device->size() != image.size) {
          return FailedPrecondition("snapshot memory '" + image.name +
                                    "' has a different base or size");
        }
        memories.emplace_back(static_cast<Ram*>(device), std::move(image));
        break;
      }
      case kChunkDevice: {
        DeviceState state;
        TL_RETURN_IF_ERROR(DecodeDevice(chunk, &state));
        Device* device = FindDeviceByName(*platform, state.name);
        if (device == nullptr) {
          return FailedPrecondition("snapshot device '" + state.name +
                                    "' does not exist on this platform");
        }
        const Status valid = device->CheckState(state.data, state.size);
        if (!valid.ok()) {
          return Status(valid.code(), "restoring device '" + device->name() +
                                          "': " + valid.message());
        }
        device_states.emplace_back(device, state);
        break;
      }
      case kChunkDigest:
        TL_RETURN_IF_ERROR(DecodeDigest(chunk, &digest_present, &digest));
        break;
      default:
        // Forward compatibility within a version is not a goal: an unknown
        // chunk means a reader/writer mismatch, so fail closed.
        return InvalidArgument("snapshot has unknown chunk '" +
                               ChunkTagName(chunk.tag) + "'");
    }
  }
  if (!have_cpu) {
    return InvalidArgument("snapshot has no CPU chunk");
  }
  if (device_states.size() != platform->bus().devices().size()) {
    return FailedPrecondition(
        "snapshot device set does not cover this platform");
  }

  // --- Apply (everything validated above). ---
  for (auto& [ram, image] : memories) {
    ram->Fill(0);
    for (const MemoryImage::Page& page : image.pages) {
      TL_RETURN_IF_ERROR(ram->LoadBytes(page.index * kSnapshotPageSize,
                                        {page.data, page.len}));
    }
  }
  // The memory rewrite bypassed the bus write path; code caches must
  // revalidate (RestoreArchState below also drops the CPU's outright).
  platform->bus().NoteHostMutation();
  platform->cpu().RestoreArchState(cpu_state);
  for (auto& [device, state] : device_states) {
    TL_RETURN_IF_ERROR(device->LoadState(state.data, state.size));
  }

  if (digest_present) {
    const Sha256Digest live = PlatformStateDigest(*platform);
    if (live != digest) {
      return Internal(
          "restored state digest does not match the snapshot self-digest "
          "(snapshot format bug or device hook drift)");
    }
  }
  return OkStatus();
}

Result<PlatformConfig> SnapshotPlatformConfig(
    const std::vector<uint8_t>& snapshot) {
  std::vector<Chunk> chunks;
  TL_RETURN_IF_ERROR(WalkSnapshot(snapshot, &chunks));
  PlatformShape shape;
  TL_RETURN_IF_ERROR(DecodeShape(chunks.front(), &shape));
  PlatformConfig config;
  config.with_mpu = shape.with_mpu != 0;
  config.mpu_regions = static_cast<int>(shape.mpu_regions);
  config.mpu_rules = static_cast<int>(shape.mpu_rules);
  config.secure_exceptions = shape.secure_exceptions != 0;
  config.sanitize_faulting_ip = shape.sanitize_faulting_ip != 0;
  config.with_dma = shape.with_dma != 0;
  config.dma_mode = static_cast<DmaEngine::Mode>(shape.dma_mode);
  config.dram_wait_states = shape.dram_wait_states;
  config.sha_cycles_per_block = shape.sha_cycles_per_block;
  return config;
}

Result<SnapshotInfo> InspectSnapshot(const std::vector<uint8_t>& snapshot) {
  std::vector<Chunk> chunks;
  TL_RETURN_IF_ERROR(WalkSnapshot(snapshot, &chunks));
  SnapshotInfo info;
  info.version = kSnapshotVersion;
  char buf[128];
  for (const Chunk& chunk : chunks) {
    SnapshotChunkInfo chunk_info;
    chunk_info.tag = chunk.tag;
    chunk_info.payload_size = static_cast<uint32_t>(chunk.size);
    chunk_info.label = ChunkTagName(chunk.tag);
    switch (chunk.tag) {
      case kChunkCpu: {
        Cpu::ArchState state;
        TL_RETURN_IF_ERROR(DecodeCpu(chunk, &state));
        info.cycles = state.cycles;
        info.instructions = state.instructions;
        info.ip = state.ip;
        info.halted = state.halted;
        std::snprintf(buf, sizeof(buf),
                      "CPU: ip=0x%08X cycles=%llu insns=%llu%s", state.ip,
                      static_cast<unsigned long long>(state.cycles),
                      static_cast<unsigned long long>(state.instructions),
                      state.halted ? " halted" : "");
        chunk_info.label = buf;
        break;
      }
      case kChunkMemory: {
        MemoryImage image;
        TL_RETURN_IF_ERROR(DecodeMemory(chunk, &image));
        info.memory_bytes_present += image.bytes_present;
        info.memory_bytes_total += image.size;
        std::snprintf(buf, sizeof(buf),
                      "MEM %s: %zu/%u pages, %.1f KiB of %.0f KiB",
                      image.name.c_str(), image.pages.size(),
                      (image.size + kSnapshotPageSize - 1) / kSnapshotPageSize,
                      static_cast<double>(image.bytes_present) / 1024.0,
                      static_cast<double>(image.size) / 1024.0);
        chunk_info.label = buf;
        break;
      }
      case kChunkDevice: {
        DeviceState state;
        TL_RETURN_IF_ERROR(DecodeDevice(chunk, &state));
        std::snprintf(buf, sizeof(buf), "DEV %s: %u state bytes",
                      state.name.c_str(), state.size);
        chunk_info.label = buf;
        break;
      }
      case kChunkDigest: {
        TL_RETURN_IF_ERROR(
            DecodeDigest(chunk, &info.digest_present, &info.digest));
        chunk_info.label =
            info.digest_present
                ? "DIGE " + HexEncode(info.digest.data(), info.digest.size())
                : "DIGE (absent)";
        break;
      }
      default:
        break;
    }
    info.chunks.push_back(std::move(chunk_info));
  }
  return info;
}

Result<std::vector<std::string>> DiffSnapshots(
    const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  std::vector<Chunk> chunks_a;
  std::vector<Chunk> chunks_b;
  TL_RETURN_IF_ERROR(WalkSnapshot(a, &chunks_a));
  TL_RETURN_IF_ERROR(WalkSnapshot(b, &chunks_b));
  std::vector<std::string> diffs;
  char buf[160];

  if (chunks_a.size() != chunks_b.size()) {
    std::snprintf(buf, sizeof(buf), "chunk count: a=%zu b=%zu",
                  chunks_a.size(), chunks_b.size());
    diffs.push_back(buf);
    return diffs;
  }
  for (size_t i = 0; i < chunks_a.size(); ++i) {
    const Chunk& ca = chunks_a[i];
    const Chunk& cb = chunks_b[i];
    if (ca.tag != cb.tag) {
      diffs.push_back("chunk " + std::to_string(i) +
                      ": a=" + ChunkTagName(ca.tag) +
                      " b=" + ChunkTagName(cb.tag));
      continue;
    }
    if (ca.size == cb.size &&
        std::memcmp(ca.data, cb.data, ca.size) == 0) {
      continue;
    }
    switch (ca.tag) {
      case kChunkCpu: {
        Cpu::ArchState sa;
        Cpu::ArchState sb;
        TL_RETURN_IF_ERROR(DecodeCpu(ca, &sa));
        TL_RETURN_IF_ERROR(DecodeCpu(cb, &sb));
        for (int r = 0; r < kNumRegisters; ++r) {
          if (sa.regs[r] != sb.regs[r]) {
            std::snprintf(buf, sizeof(buf), "cpu.r%d: a=0x%08X b=0x%08X", r,
                          sa.regs[r], sb.regs[r]);
            diffs.push_back(buf);
          }
        }
        const struct {
          const char* name;
          uint64_t va;
          uint64_t vb;
        } fields[] = {
            {"ip", sa.ip, sb.ip},
            {"prev_ip", sa.prev_ip, sb.prev_ip},
            {"flags", sa.flags, sb.flags},
            {"halted", sa.halted ? 1u : 0u, sb.halted ? 1u : 0u},
            {"cycles", sa.cycles, sb.cycles},
            {"instructions", sa.instructions, sb.instructions},
            {"exceptions", sa.exceptions, sb.exceptions},
            {"interrupts", sa.interrupts, sb.interrupts},
        };
        for (const auto& field : fields) {
          if (field.va != field.vb) {
            std::snprintf(buf, sizeof(buf), "cpu.%s: a=0x%llx b=0x%llx",
                          field.name,
                          static_cast<unsigned long long>(field.va),
                          static_cast<unsigned long long>(field.vb));
            diffs.push_back(buf);
          }
        }
        break;
      }
      case kChunkMemory: {
        MemoryImage ia;
        MemoryImage ib;
        TL_RETURN_IF_ERROR(DecodeMemory(ca, &ia));
        TL_RETURN_IF_ERROR(DecodeMemory(cb, &ib));
        if (ia.name != ib.name || ia.size != ib.size) {
          diffs.push_back("mem layout: a=" + ia.name + " b=" + ib.name);
          break;
        }
        // Reconstruct both full images and report byte-level deltas.
        const auto flatten = [](const MemoryImage& image) {
          std::vector<uint8_t> bytes(image.size, 0);
          for (const auto& page : image.pages) {
            std::memcpy(bytes.data() + size_t{page.index} * kSnapshotPageSize,
                        page.data, page.len);
          }
          return bytes;
        };
        const std::vector<uint8_t> da = flatten(ia);
        const std::vector<uint8_t> db = flatten(ib);
        uint64_t differing = 0;
        int64_t first = -1;
        for (size_t off = 0; off < da.size(); ++off) {
          if (da[off] != db[off]) {
            ++differing;
            if (first < 0) {
              first = static_cast<int64_t>(off);
            }
          }
        }
        if (differing != 0) {
          std::snprintf(buf, sizeof(buf),
                        "mem %s: %llu bytes differ, first at 0x%08llX "
                        "(a=0x%02X b=0x%02X)",
                        ia.name.c_str(),
                        static_cast<unsigned long long>(differing),
                        static_cast<unsigned long long>(ia.base + first),
                        da[static_cast<size_t>(first)],
                        db[static_cast<size_t>(first)]);
          diffs.push_back(buf);
        }
        break;
      }
      case kChunkDevice: {
        DeviceState sa;
        DeviceState sb;
        TL_RETURN_IF_ERROR(DecodeDevice(ca, &sa));
        TL_RETURN_IF_ERROR(DecodeDevice(cb, &sb));
        std::snprintf(buf, sizeof(buf),
                      "dev %s: state differs (%u vs %u bytes)",
                      sa.name.c_str(), sa.size, sb.size);
        diffs.push_back(buf);
        break;
      }
      case kChunkDigest:
        diffs.push_back("state digest differs");
        break;
      default:
        diffs.push_back("chunk " + ChunkTagName(ca.tag) + " differs");
        break;
    }
  }
  return diffs;
}

}  // namespace trustlite
