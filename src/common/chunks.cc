// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/common/chunks.h"

#include <cstring>

#include "src/common/bytes.h"
#include "src/common/crc32.h"

namespace trustlite {
namespace {

// Tag, length and CRC: the smallest a chunk can be.
constexpr size_t kChunkOverhead = 4 + 4 + 4;

}  // namespace

void AppendChunkHeader(std::vector<uint8_t>& out, const ChunkFormat& format,
                       uint32_t chunk_count) {
  out.insert(out.end(), format.magic, format.magic + 8);
  AppendLe32(out, format.version);
  AppendLe32(out, chunk_count);
}

void AppendChunk(std::vector<uint8_t>& out, uint32_t tag, const uint8_t* data,
                 size_t size) {
  AppendLe32(out, tag);
  AppendLe32(out, static_cast<uint32_t>(size));
  out.insert(out.end(), data, data + size);
  AppendLe32(out, Crc32(data, size));
}

void AppendChunk(std::vector<uint8_t>& out, uint32_t tag,
                 const std::vector<uint8_t>& payload) {
  AppendChunk(out, tag, payload.data(), payload.size());
}

std::string ChunkTagName(uint32_t tag) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>(tag >> (8 * i));
    name += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name.substr(0, name.find_last_not_of(' ') + 1);
}

Status WalkChunks(const std::vector<uint8_t>& container,
                  const ChunkFormat& format, std::vector<Chunk>* chunks,
                  bool verify_checksums) {
  const std::string name = format.name;
  ByteReader reader(container.data(), container.size());
  uint8_t magic[8] = {};
  uint32_t version = 0;
  uint32_t count = 0;
  if (!reader.ReadBytes(magic, sizeof(magic)) || !reader.ReadU32(&version) ||
      !reader.ReadU32(&count)) {
    return InvalidArgument(name + ": truncated header");
  }
  if (std::memcmp(magic, format.magic, sizeof(magic)) != 0) {
    return InvalidArgument(name + ": bad magic");
  }
  if (version != format.version) {
    return InvalidArgument(name + ": unsupported format version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(format.version) + ")");
  }
  if (count == 0 || count > reader.remaining() / kChunkOverhead) {
    return InvalidArgument(name + ": chunk count " + std::to_string(count) +
                           " does not fit the container");
  }
  chunks->clear();
  chunks->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Chunk chunk;
    uint32_t length = 0;
    uint32_t crc = 0;
    if (!reader.ReadU32(&chunk.tag) || !reader.ReadU32(&length)) {
      return InvalidArgument(name + ": truncated inside chunk header " +
                             std::to_string(i));
    }
    chunk.data = reader.cursor();
    chunk.size = length;
    if (!reader.Skip(length) || !reader.ReadU32(&crc)) {
      return InvalidArgument(name + ": truncated inside chunk '" +
                             ChunkTagName(chunk.tag) + "'");
    }
    if (verify_checksums && crc != Crc32(chunk.data, chunk.size)) {
      return InvalidArgument(name + ": chunk '" + ChunkTagName(chunk.tag) +
                             "' failed its CRC check");
    }
    if ((chunk.tag == kChunkEnd) != (i + 1 == count)) {
      return InvalidArgument(name + ": END chunk missing or misplaced");
    }
    chunks->push_back(chunk);
  }
  if (!reader.Done()) {
    return InvalidArgument(name + ": trailing bytes after END");
  }
  return OkStatus();
}

}  // namespace trustlite
