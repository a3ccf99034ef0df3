// Copyright 2026 The TrustLite Reproduction Authors.

#include "src/common/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace trustlite {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[64 * 1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const int read_errno = errno;
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Internal("read error on '" + path +
                    "': " + std::strerror(read_errno));
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Internal("cannot open '" + path +
                    "' for writing: " + std::strerror(errno));
  }
  const bool short_write =
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size();
  const int write_errno = errno;
  const bool close_failed = std::fclose(f) != 0;
  const int close_errno = errno;
  if (short_write || close_failed) {
    return Internal(
        "short write to '" + path +
        "': " + std::strerror(short_write ? write_errno : close_errno));
  }
  return OkStatus();
}

}  // namespace trustlite
