// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/common/file.h"

#include <cstdio>

namespace trustlite {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("cannot open '" + path + "'");
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[64 * 1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Internal("read error on '" + path + "'");
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Internal("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return Internal("short write to '" + path + "'");
  }
  return OkStatus();
}

}  // namespace trustlite
