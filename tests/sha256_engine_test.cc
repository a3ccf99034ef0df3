// Copyright 2026 The TrustLite Reproduction Authors.
//
// Tests for the SHA-256 compression engines (scalar reference, SHA-NI)
// behind src/crypto/sha256_engine.h. The resolved engine is whatever the
// host supports — it must agree bit-for-bit with the scalar reference.
//
// Known answers are the NIST CAVP / FIPS 180-2 SHA-256 vectors already used
// by crypto_test.cc, re-checked here through the engine entry points so a
// bad hardware engine cannot hide behind a correct scalar default.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_engine.h"

namespace trustlite {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Hex(const Sha256Digest& d) { return HexEncode(d.data(), 32); }

// FIPS 180-2 initial hash value.
constexpr uint32_t kH0[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Runs one already-padded message through a compression function and
// returns the digest, bypassing the Sha256 streaming class entirely.
Sha256Digest CompressPadded(Sha256CompressFn fn,
                            const std::vector<uint8_t>& blocks) {
  uint32_t state[8];
  std::memcpy(state, kH0, sizeof(state));
  fn(state, blocks.data(), blocks.size() / kSha256BlockSize);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<size_t>(i) * 4 + 0] = static_cast<uint8_t>(state[i] >> 24);
    out[static_cast<size_t>(i) * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[static_cast<size_t>(i) * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[static_cast<size_t>(i) * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
  return out;
}

// SHA-256 padding: message, 0x80, zeros, 64-bit big-endian bit length.
std::vector<uint8_t> Pad(const std::vector<uint8_t>& msg) {
  std::vector<uint8_t> out = msg;
  out.push_back(0x80);
  while (out.size() % kSha256BlockSize != 56) {
    out.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<uint8_t>(bits >> (i * 8)));
  }
  return out;
}

struct Kat {
  const char* msg;
  const char* digest;
};

// CAVP short-message vectors spanning 1 and 2 compression blocks.
const Kat kKats[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

TEST(Sha256EngineTest, ScalarReferencePassesKats) {
  for (const Kat& kat : kKats) {
    EXPECT_EQ(Hex(CompressPadded(&Sha256ScalarCompress, Pad(Bytes(kat.msg)))),
              kat.digest)
        << "msg=\"" << kat.msg << "\"";
  }
}

TEST(Sha256EngineTest, ResolvedEnginePassesKats) {
  // On x86 with SHA-NI this exercises the hardware rounds; elsewhere it
  // re-checks the scalar path.
  SCOPED_TRACE(std::string("engine=") + Sha256EngineName());
  for (const Kat& kat : kKats) {
    EXPECT_EQ(Hex(CompressPadded(Sha256Compress(), Pad(Bytes(kat.msg)))),
              kat.digest)
        << "msg=\"" << kat.msg << "\"";
  }
}

TEST(Sha256EngineTest, EngineNameIsStable) {
  const char* name = Sha256EngineName();
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::string(name) == "sha-ni" || std::string(name) == "scalar")
      << name;
  EXPECT_EQ(Sha256Compress(), Sha256Compress());  // Resolution is cached.
}

TEST(Sha256EngineTest, MillionAsThroughStreamingClass) {
  // The streaming class now feeds multi-block runs to the engine in one
  // call; the classic long-message vector covers that path end to end.
  Sha256 hasher;
  const std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(Hex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256EngineTest, EngineMatchesScalarOnRandomMultiBlockRuns) {
  Xoshiro256 rng(0x5eed);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t nblocks = 1 + rng.Next32() % 9;
    std::vector<uint8_t> blocks(nblocks * kSha256BlockSize);
    for (auto& b : blocks) {
      b = static_cast<uint8_t>(rng.Next32());
    }
    uint32_t a[8];
    uint32_t b[8];
    for (int i = 0; i < 8; ++i) {
      a[i] = b[i] = rng.Next32();  // Random chaining value, not just H0.
    }
    Sha256ScalarCompress(a, blocks.data(), nblocks);
    Sha256Compress()(b, blocks.data(), nblocks);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof(a))) << "trial=" << trial;
  }
}

TEST(Sha256EngineTest, SaveRestoreStateStillRoundTrips) {
  // SaveState/RestoreState (used by the soft-SHA device) must keep working
  // across the engine swap: interrupt a hash mid-stream and resume.
  Sha256 hasher;
  hasher.Update(Bytes("abcdbcdecdefdefgefghfghighijhijkijkl"));
  const Sha256::State saved = hasher.SaveState();
  Sha256 resumed;
  resumed.RestoreState(saved);
  resumed.Update(Bytes("jklmklmnlmnomnopnopq"));
  EXPECT_EQ(Hex(resumed.Finish()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

}  // namespace
}  // namespace trustlite
