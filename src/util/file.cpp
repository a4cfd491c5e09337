#include "util/file.hpp"

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace lid::util {

ReadStatus read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ReadStatus::kCannotOpen;
  text.clear();
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (!error && size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
  }
  // Whatever the size did not cover: a file that grew, or one with no size.
  std::array<char, 1 << 14> chunk{};
  while (in.read(chunk.data(), chunk.size()), in.gcount() > 0) {
    text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  return in.bad() ? ReadStatus::kReadError : ReadStatus::kOk;
}

}  // namespace lid::util
