// Copyright 2026 The TrustLite Reproduction Authors.
//
// Argument and input helpers shared by the command-line tools (tlsim,
// tlfleetd, tlfw, tlfuzz).

#ifndef TRUSTLITE_TOOLS_CLI_H_
#define TRUSTLITE_TOOLS_CLI_H_

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/file.h"

namespace trustlite {

// Parses `text`, the value of option `what` of `tool`, as an unsigned
// number that fits T: decimal, 0x hex or 0-prefixed octal, as strtoull with
// base 0. Empty, signed, trailing-garbage and out-of-range text is rejected
// with a message, so a typo fails the command instead of running with 0.
template <typename T>
bool ParseNumber(const char* tool, const std::string& what,
                 const std::string& text, T* out) {
  static_assert(std::is_integral_v<T>);
  constexpr unsigned long long kMax =
      static_cast<unsigned long long>(std::numeric_limits<T>::max());
  if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0]))) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (*end == '\0' && errno == 0 && value <= kMax) {
      *out = static_cast<T>(value);
      return true;
    }
  }
  std::fprintf(stderr, "%s: %s: '%s' is not a number in 0..%llu\n", tool,
               what.c_str(), text.c_str(), kMax);
  return false;
}

// Reads a whole text file (a guest .s source) into `out`, or prints why it
// could not.
inline bool ReadTextFile(const char* tool, const std::string& path,
                         std::string* out) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, bytes.status().ToString().c_str());
    return false;
  }
  out->assign(bytes->begin(), bytes->end());
  return true;
}

}  // namespace trustlite

#endif  // TRUSTLITE_TOOLS_CLI_H_
