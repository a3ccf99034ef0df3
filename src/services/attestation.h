// Copyright 2026 The TrustLite Reproduction Authors.
//
// Attestation service trustlet ("Attest" in paper Fig. 1).
//
// The trustlet owns a device key (embedded in its private code region,
// which the loader write-protects and — via code_private — hides from all
// other subjects) and exclusive access to the SHA-256 engine. On request it
// produces a report
//
//     report = SHA-256(key || challenge || target code bytes)
//
// over the *live* code region of the target trustlet (bounds discovered
// from the Trustlet Table row, Sec. 4.2.2: "validate a cryptographic hash
// of the responder's program code"). A verifier that knows the key can
// recompute the report and detect any code modification.
//
// The request/response mailbox lives in open memory:
//   +0  command   (verifier writes 1 to request, trustlet writes 0 when done)
//   +4  challenge (nonce chosen by the verifier)
//   +8  target id
//   +12 status    (1 = ok, 2 = unknown target)
//   +16 report    (32 bytes)

#ifndef TRUSTLITE_SRC_SERVICES_ATTESTATION_H_
#define TRUSTLITE_SRC_SERVICES_ATTESTATION_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/scan.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"
#include "src/mem/bus.h"
#include "src/mem/layout.h"
#include "src/trustlet/builder.h"

namespace trustlite {

inline constexpr uint32_t kAttestMailboxCommand = 0;
inline constexpr uint32_t kAttestMailboxChallenge = 4;
inline constexpr uint32_t kAttestMailboxTarget = 8;
inline constexpr uint32_t kAttestMailboxStatus = 12;
inline constexpr uint32_t kAttestMailboxReport = 16;

inline constexpr uint32_t kAttestStatusOk = 1;
inline constexpr uint32_t kAttestStatusUnknownTarget = 2;

struct AttestationSpec {
  std::string name = "ATTN";
  uint32_t code_addr = 0;
  uint32_t data_addr = 0;
  uint32_t data_size = 0x800;
  uint32_t mailbox_addr = 0;
  uint32_t table_addr = kTrustletTableBase;
  std::array<uint8_t, 32> key{};
  bool grant_sha = true;  // Exclusive SHA engine grant.
};

// Builds the attestation trustlet record.
Result<TrustletMeta> BuildAttestationTrustlet(const AttestationSpec& spec);

// Host-side verifier: recomputes the expected report for `target_code`.
Sha256Digest ExpectedAttestationReport(const std::array<uint8_t, 32>& key,
                                       uint32_t challenge,
                                       const std::vector<uint8_t>& target_code);

// Host-side helpers to drive the mailbox.
void WriteAttestationRequest(Bus* bus, uint32_t mailbox, uint32_t challenge,
                             uint32_t target_id);
bool ReadAttestationReport(Bus* bus, uint32_t mailbox, uint32_t* status,
                           Sha256Digest* report);

// --- Remote attestation over the UART -----------------------------------
//
// Wire protocol (binary):
//   request:  'A' target_id[4, LE] challenge[4, LE]
//   response: 'R' status[1]       report[32]        (report only when OK)
//
// The trustlet owns the UART *and* the SHA engine exclusively: the
// challenge travels over a trusted path end to end, and no software on the
// device — including the OS forwarding network frames in a real deployment
// — can tamper with the exchange.

// Builds the UART-transport variant of the attestation trustlet.
// `spec.mailbox_addr` is unused; the UART is granted automatically.
Result<TrustletMeta> BuildUartAttestationTrustlet(const AttestationSpec& spec);

// Encodes a request frame as the remote verifier would send it.
std::string EncodeAttestationRequest(uint32_t target_id, uint32_t challenge);

// Incremental response framing for hostile streams. Scans [offset, end) of
// `uart_output` for the next response frame and reports exactly how far the
// caller's cursor may advance (src/common/scan.h), so garbage floods
// (corrupted frames, reflected challenges) cost O(new bytes) per scan
// instead of re-walking the whole tail every poll. *frame_start is the
// frame's 'R'.
FrameScan ScanAttestationResponse(const std::string& uart_output,
                                  size_t offset, size_t* frame_start,
                                  size_t* next_offset, uint32_t* status,
                                  Sha256Digest* report);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_SERVICES_ATTESTATION_H_
