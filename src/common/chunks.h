// Copyright 2026 The TrustLite Reproduction Authors.
//
// The CRC-chunked container framing shared by .tlsnap snapshots
// (docs/SNAPSHOT_FORMAT.md) and .tlfw firmware containers
// (docs/UPDATE_FORMAT.md) — one framing for both, in the TF-M/mcuboot idiom
// of one image format for boot and OTA:
//
//   magic(8) format_version(4) chunk_count(4)
//   chunk_count x { tag(4) length(4) payload(length) crc32(payload)(4) }
//
// all little-endian, the last chunk being END. WalkChunks is the
// fail-closed framing half of both parsers; each format keeps its own chunk
// rules (which chunk comes first, what a payload means) on top of it.

#ifndef TRUSTLITE_SRC_COMMON_CHUNKS_H_
#define TRUSTLITE_SRC_COMMON_CHUNKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace trustlite {

// Packs a four-character chunk tag, first character in the low byte.
constexpr uint32_t ChunkTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         (static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24);
}

// The terminator of every container: last, and only last.
inline constexpr uint32_t kChunkEnd = ChunkTag('E', 'N', 'D', ' ');

struct ChunkFormat {
  const char* name;      // Error-message prefix ("snapshot", "tlfw").
  const uint8_t* magic;  // 8 bytes.
  uint32_t version;
};

// A chunk found by the walk: a span into the container buffer.
struct Chunk {
  uint32_t tag = 0;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

// Appends the container header (magic, format version, chunk count).
void AppendChunkHeader(std::vector<uint8_t>& out, const ChunkFormat& format,
                       uint32_t chunk_count);
// Appends one chunk: tag, length, payload, CRC-32 of the payload.
void AppendChunk(std::vector<uint8_t>& out, uint32_t tag, const uint8_t* data,
                 size_t size);
void AppendChunk(std::vector<uint8_t>& out, uint32_t tag,
                 const std::vector<uint8_t>& payload);

// Printable tag name ("MEM", "FWPL"): non-printing bytes become '?', and
// trailing spaces are dropped.
std::string ChunkTagName(uint32_t tag);

// The framing walk. Checks the magic, the format version, that the chunk
// count fits the buffer (nothing is sized by an unchecked count), every
// chunk's length and — unless `verify_checksums` is false — its CRC, that
// END comes last and only last, and that no bytes trail it. Fills `chunks`
// with every chunk, END included, as spans into `container`.
Status WalkChunks(const std::vector<uint8_t>& container,
                  const ChunkFormat& format, std::vector<Chunk>* chunks,
                  bool verify_checksums = true);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_COMMON_CHUNKS_H_
