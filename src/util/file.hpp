// Whole-file reads into one string.
#pragma once

#include <string>

namespace lid::util {

/// How read_file ended.
enum class ReadStatus { kOk, kCannotOpen, kReadError };

/// Reads the whole file at `path` into `text`. A regular file is read
/// straight into a string sized from the file, so its bytes are copied once;
/// other files (pipes, devices) are read in chunks. On kReadError `text`
/// holds what was read before the error.
ReadStatus read_file(const std::string& path, std::string& text);

}  // namespace lid::util
