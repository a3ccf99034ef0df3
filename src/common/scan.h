// Copyright 2026 The TrustLite Reproduction Authors.
//
// The result of one incremental frame scan over a byte stream, shared by
// every stream parser: the UART attestation responses
// (src/services/attestation.h) and the CRC link frames (src/fleet/frame.h).
// A scan tells the consumer exactly how far its cursor may advance, so
// garbage costs O(new bytes) per scan:
//   kFrame    — a complete frame parsed. *frame_start is its marker and
//               *next_offset the first byte past it (safe resume point).
//   kNeedMore — a frame marker found at *frame_start but its bytes are
//               still streaming; resume the scan at *frame_start later.
//   kNoFrame  — no frame marker in the tail; the whole region from the
//               scan offset to the end is noise and may be skipped for good.

#ifndef TRUSTLITE_SRC_COMMON_SCAN_H_
#define TRUSTLITE_SRC_COMMON_SCAN_H_

namespace trustlite {

enum class FrameScan { kFrame, kNeedMore, kNoFrame };

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_COMMON_SCAN_H_
