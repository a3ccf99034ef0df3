// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/fleet/frame.h"

#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/fleet/link.h"

namespace trustlite {
namespace {

const FrameFamily* FamilyOf(uint8_t marker) {
  for (const FrameFamily& family : kFrameFamilies) {
    if (family.marker == marker) {
      return &family;
    }
  }
  return nullptr;
}

}  // namespace

std::string SealFrame(std::vector<uint8_t> frame) {
  AppendLe32(frame, Crc32(frame.data(), frame.size()));
  return std::string(frame.begin(), frame.end());
}

std::string EncodeDataFrame(uint8_t marker, uint32_t a, uint32_t b,
                            const uint8_t* data, size_t len) {
  std::vector<uint8_t> frame;
  frame.reserve(kDataFrameHeaderSize + len + 4);
  frame.push_back(marker);
  AppendLe32(frame, a);
  AppendLe32(frame, b);
  frame.push_back(static_cast<uint8_t>(len));
  frame.push_back(static_cast<uint8_t>(len >> 8));
  frame.insert(frame.end(), data, data + len);
  return SealFrame(std::move(frame));
}

FrameScan ScanFrame(const std::string& rx, size_t offset, Channel channel,
                    size_t* frame_start, size_t* next_offset) {
  const size_t n = rx.size();
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(rx.data());
  for (size_t pos = offset;; ++pos) {
    const FrameFamily* family = nullptr;
    for (; pos < n; ++pos) {
      family = FamilyOf(bytes[pos]);
      if (family != nullptr && family->channel == channel) {
        break;
      }
    }
    if (pos >= n) {
      return FrameScan::kNoFrame;
    }
    *frame_start = pos;
    size_t total = family->fixed_size;
    if (total == 0) {
      if (n - pos < kDataFrameHeaderSize) {
        return FrameScan::kNeedMore;
      }
      const uint16_t len = LoadLe16(bytes + pos + 9);
      if (len > family->max_data) {
        // A corrupted length would otherwise stall the scan waiting for
        // bytes that never come; an over-cap claim is noise.
        continue;
      }
      total = kDataFrameHeaderSize + len + 4;
    }
    if (n - pos < total) {
      return FrameScan::kNeedMore;
    }
    if (LoadLe32(bytes + pos + total - 4) != Crc32(bytes + pos, total - 4)) {
      continue;  // CRC-invalid candidate: resync from the next byte.
    }
    *next_offset = pos + total;
    return FrameScan::kFrame;
  }
}

std::optional<Channel> RouteFrame(int src, int dst,
                                  const std::string& payload) {
  const FrameFamily* family =
      payload.empty() ? nullptr : FamilyOf(static_cast<uint8_t>(payload[0]));
  const bool to_verifier =
      family != nullptr && family->channel == Channel::kControl;
  if (dst == kVerifierPort) {
    return to_verifier ? Channel::kControl : Channel::kAttest;
  }
  if (src == kVerifierPort && family != nullptr && !to_verifier) {
    return family->channel;
  }
  return std::nullopt;
}

}  // namespace trustlite
