// Copyright 2026 The TrustLite Reproduction Authors.
//
// The state digest's byte stream (docs/SNAPSHOT_FORMAT.md, DIGE): SRAM and
// DRAM contribute only their non-zero pages, each as its LE32 page index and
// its bytes, then LE32 0xFFFFFFFF. PlatformStateDigest walks only the pages
// a memory's write map marks; this copy scans every byte and never reads
// the map, so a page the map missed shows as a digest mismatch.

#ifndef TRUSTLITE_TESTS_REFERENCE_STATE_DIGEST_H_
#define TRUSTLITE_TESTS_REFERENCE_STATE_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/platform/platform.h"
#include "src/snapshot/snapshot.h"

namespace trustlite {

// The documented stream, built the slow way: a byte loop decides which pages
// are zero, and the whole stream is materialized before it is hashed.
inline std::vector<uint8_t> ReferenceDigestStream(Platform& p) {
  std::vector<uint8_t> stream;
  for (int i = 0; i < kNumRegisters; ++i) {
    AppendLe32(stream, p.cpu().reg(i));
  }
  AppendLe32(stream, p.cpu().ip());
  AppendLe32(stream, p.cpu().flags());
  AppendLe32(stream, p.cpu().halted() ? 1 : 0);
  AppendLe64(stream, p.cpu().cycles());
  for (const Ram* ram : {&p.sram(), &p.dram()}) {
    const std::span<const uint8_t> bytes = ram->data();
    for (size_t begin = 0; begin < bytes.size(); begin += kSnapshotPageSize) {
      const size_t end = std::min<size_t>(bytes.size(),
                                          begin + kSnapshotPageSize);
      bool zero = true;
      for (size_t i = begin; i < end; ++i) {
        zero = zero && bytes[i] == 0;
      }
      if (!zero) {
        AppendLe32(stream, static_cast<uint32_t>(begin / kSnapshotPageSize));
        stream.insert(stream.end(), bytes.begin() + static_cast<long>(begin),
                      bytes.begin() + static_cast<long>(end));
      }
    }
    AppendLe32(stream, 0xFFFFFFFF);
  }
  AppendLe32(stream, p.gpio().out());
  stream.insert(stream.end(), p.uart().output().begin(),
                p.uart().output().end());
  return stream;
}

}  // namespace trustlite

#endif  // TRUSTLITE_TESTS_REFERENCE_STATE_DIGEST_H_
