// FNV-1a 64 over bytes: tiny, dependency-free and stable across platforms.
// It addresses models and certificates by their canonical netlist text and
// places keys on the cluster's hash ring; it is not a security boundary.
#pragma once

#include <cstdint>
#include <string_view>

namespace lid::util {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;  // offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // prime
  }
  return h;
}

}  // namespace lid::util
