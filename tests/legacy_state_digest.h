// Copyright 2026 The TrustLite Reproduction Authors.
//
// The state digest as snapshot format version 1 defined it: SRAM and DRAM
// hashed whole, zero pages included. Version 2 hashes only non-zero pages
// (docs/SNAPSHOT_FORMAT.md, DIGE), which moved every pinned digest; the
// pins keep their version-1 values through this copy, so each pinned run
// is shown to reach exactly the state it reached before the change.

#ifndef TRUSTLITE_TESTS_LEGACY_STATE_DIGEST_H_
#define TRUSTLITE_TESTS_LEGACY_STATE_DIGEST_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"
#include "src/fleet/fleet.h"
#include "src/platform/platform.h"

namespace trustlite {

inline Sha256Digest LegacyStateDigest(Platform& p) {
  std::vector<uint8_t> head;
  for (int i = 0; i < kNumRegisters; ++i) {
    AppendLe32(head, p.cpu().reg(i));
  }
  AppendLe32(head, p.cpu().ip());
  AppendLe32(head, p.cpu().flags());
  AppendLe32(head, p.cpu().halted() ? 1 : 0);
  AppendLe64(head, p.cpu().cycles());
  std::vector<uint8_t> tail;
  AppendLe32(tail, p.gpio().out());
  tail.insert(tail.end(), p.uart().output().begin(), p.uart().output().end());
  Sha256 hasher;
  hasher.Update(head);
  for (const Ram* ram : {&p.sram(), &p.dram()}) {
    hasher.Update(ram->data().data(), ram->data().size());
  }
  hasher.Update(tail);
  return hasher.Finish();
}

// Fleet::FleetDigest's fold (node digests in node order) over the legacy
// node stream.
inline Sha256Digest LegacyFleetDigest(Fleet& fleet) {
  Sha256 hasher;
  for (int i = 0; i < fleet.num_nodes(); ++i) {
    hasher.Update(LegacyStateDigest(fleet.node(i).platform()).data(),
                  kSha256DigestSize);
  }
  return hasher.Finish();
}

}  // namespace trustlite

#endif  // TRUSTLITE_TESTS_LEGACY_STATE_DIGEST_H_
