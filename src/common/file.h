// Copyright 2026 The TrustLite Reproduction Authors.
//
// Whole-file byte I/O for the CLI tools. Failures — including a read that
// fails part-way, such as reading a directory — come back as a Status
// instead of a short or empty buffer, and the message ends with the C
// library's reason (strerror of the failed call's errno).

#ifndef TRUSTLITE_SRC_COMMON_FILE_H_
#define TRUSTLITE_SRC_COMMON_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace trustlite {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);
Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes);

}  // namespace trustlite

#endif  // TRUSTLITE_SRC_COMMON_FILE_H_
