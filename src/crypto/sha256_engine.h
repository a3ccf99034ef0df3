// Copyright 2026 The TrustLite Reproduction Authors.
//
// Host-side SHA-256 compression engines (DESIGN.md §15.4). The guest-visible
// crypto is unchanged — every engine computes FIPS 180-4 SHA-256 bit-for-bit;
// this layer only picks how the simulation host runs the compression
// function. Two engines:
//
//   1. x86 SHA-NI, selected at runtime when the host CPU has it.
//   2. Scalar: the same rounds the seed implementation ran; always present,
//      used on every other host, and the reference SHA-NI is tested against.
//
// Sha256 (sha256.h) routes its block processing through Sha256Compress(),
// so every caller gets the faster engine transparently.

#ifndef TRUSTLITE_SRC_CRYPTO_SHA256_ENGINE_H_
#define TRUSTLITE_SRC_CRYPTO_SHA256_ENGINE_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/sha256.h"

namespace trustlite {

// Compresses `nblocks` consecutive 64-byte blocks into `state` (eight
// big-endian working words, FIPS 180-4 order). No padding, no finalization —
// this is the inner primitive only.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t nblocks);

// The fastest single-stream compressor available on this host. Resolved once
// on first call; stable for the process lifetime.
Sha256CompressFn Sha256Compress();

// Engine behind Sha256Compress(): "sha-ni" or "scalar". Telemetry/bench
// label only.
const char* Sha256EngineName();

// The always-available reference engine, exported for differential testing.
void Sha256ScalarCompress(uint32_t state[8], const uint8_t* blocks,
                          size_t nblocks);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_CRYPTO_SHA256_ENGINE_H_
