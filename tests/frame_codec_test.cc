// Copyright 2026 The TrustLite Reproduction Authors.
// Property sweep of the link frame codec (src/fleet/frame.h), table-driven
// over all four CRC families: round trips through noise, every single-bit
// flip rejected with the scan resyncing onto the next good frame, every
// truncation waiting at the marker, over-cap lengths skipped, families of
// other channels ignored, and incremental feeding equal to a whole scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"
#include "src/fleet/control.h"
#include "src/fleet/frame.h"
#include "src/fleet/link.h"
#include "src/fleet/update.h"

namespace trustlite {
namespace {

struct FamilyCase {
  const char* name;
  Channel channel;
  std::string frame;  // A valid frame of the family.
  std::string other;  // A second valid frame of the family.
  // Checks the decoded fields of `frame` (p points at its marker).
  std::function<void(const uint8_t* p, size_t size)> check;
};

std::vector<FamilyCase> Families() {
  static const uint8_t kData[] = {1, 2, 3, 4, 5};
  static const Sha256Digest kDigest = ConfigRegionDigest(3, "a=b\n");
  HealthBeacon beacon;
  beacon.cycle = 123'456'789;
  beacon.instructions = 42;
  beacon.tx_bytes = 7;
  beacon.rx_bytes = 9;
  beacon.config_generation = 3;
  beacon.halted = true;
  HealthBeacon later = beacon;
  later.cycle += 20'000;
  return {
      {"update", Channel::kUpdate,
       EncodeUpdateFrame(0xABCD1234, 512, kData, 5),
       EncodeUpdateFrame(0xABCD1234, 517, kData, 3),
       [](const uint8_t* p, size_t size) {
         EXPECT_EQ(LoadLe32(p + 1), 0xABCD1234u);
         EXPECT_EQ(LoadLe32(p + 5), 512u);
         EXPECT_EQ(LoadLe16(p + 9), 5u);
         EXPECT_EQ(std::string(p + kDataFrameHeaderSize, p + size - 4),
                   std::string(kData, kData + 5));
       }},
      {"config", Channel::kConfig,
       EncodeConfigFrame(0xDEADBEEF, 7, "mode=eco\n"),
       EncodeConfigFrame(2, 2, "k=w\n"),
       [](const uint8_t* p, size_t size) {
         EXPECT_EQ(LoadLe32(p + 1), 0xDEADBEEFu);
         EXPECT_EQ(LoadLe32(p + 5), 7u);
         EXPECT_EQ(std::string(p + kDataFrameHeaderSize, p + size - 4),
                   "mode=eco\n");
       }},
      {"ack", Channel::kControl, EncodeConfigAck(55, 3, kDigest),
       EncodeConfigAck(56, 4, kDigest),
       [](const uint8_t* p, size_t size) {
         EXPECT_EQ(size, 45u);
         EXPECT_EQ(LoadLe32(p + 1), 55u);
         EXPECT_EQ(LoadLe32(p + 5), 3u);
         EXPECT_TRUE(std::equal(kDigest.begin(), kDigest.end(), p + 9));
       }},
      {"health", Channel::kControl, EncodeHealthFrame(beacon),
       EncodeHealthFrame(later),
       [](const uint8_t* p, size_t size) {
         EXPECT_EQ(size, 42u);
         EXPECT_EQ(LoadLe64(p + 1), 123'456'789u);
         EXPECT_EQ(LoadLe64(p + 9), 42u);
         EXPECT_EQ(LoadLe64(p + 17), 7u);
         EXPECT_EQ(LoadLe64(p + 25), 9u);
         EXPECT_EQ(LoadLe32(p + 33), 3u);
         EXPECT_EQ(p[37], 1u);
       }},
  };
}

const Channel kCrcChannels[] = {Channel::kUpdate, Channel::kConfig,
                                Channel::kControl};

// Scans `rx` from *cursor the way Fleet::DrainRx advances a consumer,
// returning the frames found.
std::vector<std::string> Drain(const std::string& rx, size_t* cursor,
                               Channel channel) {
  std::vector<std::string> frames;
  while (true) {
    size_t start = 0;
    size_t end = 0;
    const FrameScan scan = ScanFrame(rx, *cursor, channel, &start, &end);
    if (scan != FrameScan::kFrame) {
      *cursor = scan == FrameScan::kNeedMore ? start : rx.size();
      return frames;
    }
    frames.push_back(rx.substr(start, end - start));
    *cursor = end;
  }
}

// Drains `rx` completely, appending non-marker filler while the scan waits
// for bytes a (possibly corrupted) length claims.
std::vector<std::string> DrainWithFiller(std::string rx, Channel channel) {
  std::vector<std::string> frames;
  size_t cursor = 0;
  for (int round = 0; round < 64; ++round) {
    for (std::string& frame : Drain(rx, &cursor, channel)) {
      frames.push_back(std::move(frame));
    }
    if (cursor == rx.size()) {
      break;
    }
    rx.append(256, '\0');
  }
  return frames;
}

TEST(FrameCodecTest, EveryFamilyRoundTripsThroughNoise) {
  for (const FamilyCase& c : Families()) {
    SCOPED_TRACE(c.name);
    const std::string rx = "noise" + c.frame + "tail";
    size_t start = 99;
    size_t end = 0;
    ASSERT_EQ(ScanFrame(rx, 0, c.channel, &start, &end), FrameScan::kFrame);
    EXPECT_EQ(start, 5u);
    EXPECT_EQ(end, 5u + c.frame.size());
    c.check(reinterpret_cast<const uint8_t*>(rx.data()) + start, end - start);
    // The tail after the frame is noise.
    EXPECT_EQ(ScanFrame(rx, end, c.channel, &start, &end), FrameScan::kNoFrame);
  }
}

TEST(FrameCodecTest, ChannelFamiliesShareOneStreamInOrder) {
  // Ack and health beacon share the control channel; a corrupted frame and
  // noise between them cost nothing but the skipped bytes.
  for (Channel channel : kCrcChannels) {
    std::string rx = "garbage";
    std::vector<std::string> want;
    for (const FamilyCase& c : Families()) {
      if (c.channel != channel) {
        continue;
      }
      std::string corrupted = c.frame;
      corrupted[5] ^= 0x40;
      rx += corrupted + c.frame + "noise" + c.other;
      want.push_back(c.frame);
      want.push_back(c.other);
    }
    size_t cursor = 0;
    EXPECT_EQ(Drain(rx, &cursor, channel), want);
    EXPECT_EQ(cursor, rx.size());
  }
}

TEST(FrameCodecTest, EverySingleBitFlipIsRejectedAndTheScanResyncs) {
  for (const FamilyCase& c : Families()) {
    SCOPED_TRACE(c.name);
    for (size_t bit = 0; bit < c.frame.size() * 8; ++bit) {
      std::string flipped = c.frame;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      // Alone, the damaged frame never scans as a frame...
      EXPECT_TRUE(DrainWithFiller(flipped, c.channel).empty()) << "bit " << bit;
      // ...and the good frame after it is still found, once a flipped
      // length's claimed bytes have arrived.
      EXPECT_EQ(DrainWithFiller(flipped + c.other, c.channel),
                std::vector<std::string>{c.other})
          << "bit " << bit;
    }
  }
}

TEST(FrameCodecTest, EveryTruncationNeedsMoreAtTheMarker) {
  for (const FamilyCase& c : Families()) {
    SCOPED_TRACE(c.name);
    for (size_t len = 1; len < c.frame.size(); ++len) {
      const std::string rx = "noise" + c.frame.substr(0, len);
      size_t start = 99;
      size_t end = 0;
      EXPECT_EQ(ScanFrame(rx, 0, c.channel, &start, &end),
                FrameScan::kNeedMore)
          << "len " << len;
      EXPECT_EQ(start, 5u) << "len " << len;
    }
  }
}

TEST(FrameCodecTest, OverCapLengthIsSkippedAsNoise) {
  for (const FrameFamily& family : kFrameFamilies) {
    if (family.fixed_size != 0) {
      continue;
    }
    // A whole, CRC-valid frame whose length claims one byte over the cap.
    const std::vector<uint8_t> data(family.max_data + 1, 0);
    const std::string over =
        EncodeDataFrame(family.marker, 1, 2, data.data(), data.size());
    const std::string good =
        EncodeDataFrame(family.marker, 3, 4, data.data(), 8);
    size_t start = 0;
    size_t end = 0;
    EXPECT_EQ(ScanFrame(over, 0, family.channel, &start, &end),
              FrameScan::kNoFrame);
    size_t cursor = 0;
    EXPECT_EQ(Drain(over + good, &cursor, family.channel),
              std::vector<std::string>{good});
    // At the cap itself the frame is accepted.
    const std::string at_cap = EncodeDataFrame(family.marker, 1, 2,
                                               data.data(), family.max_data);
    cursor = 0;
    EXPECT_EQ(Drain(at_cap, &cursor, family.channel),
              std::vector<std::string>{at_cap});
  }
}

TEST(FrameCodecTest, FamiliesOfOtherChannelsAreNoise) {
  const std::vector<FamilyCase> families = Families();
  for (const FamilyCase& c : families) {
    SCOPED_TRACE(c.name);
    for (const FamilyCase& target : families) {
      if (target.channel == c.channel) {
        continue;
      }
      EXPECT_EQ(DrainWithFiller(c.frame + target.frame, target.channel),
                std::vector<std::string>{target.frame})
          << "in the " << target.name << " stream";
    }
    // Routing: each family reaches its channel only from its own direction;
    // a verifier-bound family delivered to a node, or a node-sourced
    // (reflected) frame at a node, goes to the UART instead.
    const bool to_verifier = c.channel == Channel::kControl;
    EXPECT_EQ(RouteFrame(0, kVerifierPort, c.frame),
              to_verifier ? Channel::kControl : Channel::kAttest);
    EXPECT_EQ(RouteFrame(kVerifierPort, 0, c.frame),
              to_verifier ? std::nullopt : std::optional<Channel>(c.channel));
    EXPECT_EQ(RouteFrame(1, 0, c.frame), std::nullopt);
  }
  EXPECT_EQ(RouteFrame(0, kVerifierPort, "R\x01"), Channel::kAttest);
  EXPECT_EQ(RouteFrame(kVerifierPort, 0, "A12345678"), std::nullopt);
  EXPECT_EQ(RouteFrame(kVerifierPort, 0, ""), std::nullopt);
}

TEST(FrameCodecTest, FeedingAtEverySplitMatchesTheWholeScan) {
  // Good and corrupted frames of every family, with noise, then a frame
  // still streaming: the scan ends waiting at its marker.
  const std::vector<FamilyCase> families = Families();
  std::string stream = "lead";
  for (const FamilyCase& c : families) {
    std::string corrupted = c.other;
    corrupted.back() = static_cast<char>(corrupted.back() ^ 0x01);
    stream += c.frame + "\x01" + corrupted + c.other;
  }
  for (const FamilyCase& tail : families) {
    const Channel channel = tail.channel;
    const std::string stream_with_tail =
        stream + tail.frame.substr(0, tail.frame.size() - 1);
    size_t whole_cursor = 0;
    const std::vector<std::string> whole =
        Drain(stream_with_tail, &whole_cursor, channel);
    ASSERT_EQ(whole.size(), channel == Channel::kControl ? 4u : 2u);
    ASSERT_EQ(whole_cursor, stream.size());
    for (size_t split = 0; split <= stream_with_tail.size(); ++split) {
      std::string rx = stream_with_tail.substr(0, split);
      size_t cursor = 0;
      std::vector<std::string> frames = Drain(rx, &cursor, channel);
      rx += stream_with_tail.substr(split);
      for (std::string& frame : Drain(rx, &cursor, channel)) {
        frames.push_back(std::move(frame));
      }
      EXPECT_EQ(frames, whole) << "split at " << split;
      EXPECT_EQ(cursor, whole_cursor) << "split at " << split;
    }
  }
}

}  // namespace
}  // namespace trustlite
