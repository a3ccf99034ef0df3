// Copyright 2026 The TrustLite Reproduction Authors.
//
// The link frame codec (docs/WIRE_PROTOCOL.md): the one table of the four
// CRC-32-framed families that share the fleet links with the attestation
// protocol, the one writer and the one scanner for them, and the
// first-byte routing that places every delivered frame into a per-node
// channel of Fleet (Fleet::Rx).
//
//   marker  family         direction         layout
//   0xD5    update chunk   verifier -> node  marker cid(4) offset(4) len(2)
//                                            data(len) crc(4)
//   0xC6    config push    verifier -> node  marker push_id(4) gen(4)
//                                            len(2) blob(len) crc(4)
//   0xC7    config ack     node -> verifier  45 bytes fixed
//   0xC8    health beacon  node -> verifier  42 bytes fixed
//
// The CRC-32 covers every byte before it. The scanner resyncs on a CRC
// failure or an over-cap length by skipping one byte, so a corrupted or
// misrouted frame costs O(new bytes) and is never fatal; the attestation
// pair ('A' requests, 'R' reports) carries no CRC and keeps its own
// scanner (src/services/attestation.h).

#ifndef TRUSTLITE_SRC_FLEET_FRAME_H_
#define TRUSTLITE_SRC_FLEET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/scan.h"

namespace trustlite {

// No marker is 'A' or 'R', so the attestation pair never routes into a CRC
// channel.
inline constexpr uint8_t kUpdateFrameMarker = 0xD5;  // verifier -> node
inline constexpr uint8_t kConfigFrameMarker = 0xC6;  // verifier -> node
inline constexpr uint8_t kConfigAckMarker = 0xC7;    // node -> verifier
inline constexpr uint8_t kHealthFrameMarker = 0xC8;  // node -> verifier

// Largest data run a single update chunk may carry; bounds what a corrupted
// length field can make the scanner wait for.
inline constexpr uint32_t kMaxUpdateFrameData = 4096;
// Largest config blob: the node's 1 KiB config region minus its 8-byte
// generation/length header (src/fleet/control.h).
inline constexpr uint32_t kMaxConfigBlobBytes = 1024 - 8;

// The per-node byte streams of Fleet. Each has exactly one consumer.
enum class Channel : uint8_t {
  kAttest,   // Node -> verifier: everything not routed to kControl.
  kControl,  // Node -> verifier: config acks and health beacons.
  kUpdate,   // Verifier -> node: update chunks, for the update agent.
  kConfig,   // Verifier -> node: config pushes, for the config agent.
};
inline constexpr size_t kNumChannels = 4;

// Length-prefixed families: marker, two u32 fields, a u16 data length at
// +9, then the data and the CRC.
inline constexpr size_t kDataFrameHeaderSize = 1 + 4 + 4 + 2;

struct FrameFamily {
  uint8_t marker;
  Channel channel;      // The stream the family is routed into.
  uint32_t fixed_size;  // Whole frame, CRC included; 0 = length-prefixed.
  uint32_t max_data;    // Length-prefixed: cap on the data length.
};

inline constexpr FrameFamily kFrameFamilies[] = {
    {kUpdateFrameMarker, Channel::kUpdate, 0, kMaxUpdateFrameData},
    {kConfigFrameMarker, Channel::kConfig, 0, kMaxConfigBlobBytes},
    {kConfigAckMarker, Channel::kControl, 1 + 4 + 4 + 32 + 4, 0},
    {kHealthFrameMarker, Channel::kControl, 1 + 8 * 4 + 4 + 1 + 4, 0},
};

// The data of a whole length-prefixed frame (between length and CRC).
inline std::string_view DataOf(std::string_view frame) {
  return frame.substr(kDataFrameHeaderSize,
                      frame.size() - kDataFrameHeaderSize - 4);
}

// Appends the CRC-32 trailer over `frame` and returns the wire bytes.
std::string SealFrame(std::vector<uint8_t> frame);

// Packs and seals a length-prefixed frame: marker, a, b, len, data.
std::string EncodeDataFrame(uint8_t marker, uint32_t a, uint32_t b,
                            const uint8_t* data, size_t len);

// Scans rx[offset, end) for the next CRC-valid frame of a family routed
// into `channel` (src/common/scan.h has the result contract). Markers of
// other channels' families are noise here.
FrameScan ScanFrame(const std::string& rx, size_t offset, Channel channel,
                    size_t* frame_start, size_t* next_offset);

// First-byte routing of a payload the fabric delivered from `src` to `dst`
// (kVerifierPort = the verifier). At the verifier, control families join
// kControl and everything else kAttest. At a node, only verifier-sourced
// update and config frames are staged in their channel; anything else —
// including a reflected or echoed frame from another node — returns nullopt
// and goes to the node's UART. A corrupted marker misroutes its frame, and
// the CRC then rejects it wherever it lands.
std::optional<Channel> RouteFrame(int src, int dst, const std::string& payload);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_FLEET_FRAME_H_
