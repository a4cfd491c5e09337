// Line and token splitting over one text buffer, without copies.
//
// The netlist reader (lis/netlist_io) and the `#!` annotation reader
// (des/annotations) read text the way std::getline and `istream >>` read it
// in the C locale. These splitters do the same over string_views into the
// caller's buffer, so no line or token is copied. append_decimal is the
// writer's side: the digits `ostream <<` prints for an integer in the C
// locale, appended without a stream.
#pragma once

#include <charconv>
#include <climits>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lid::util {

/// The bytes `istream >>` skips in the C locale: space, \t, \n, \v, \f, \r.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The lines of a text as std::getline yields them: split on '\n', the
/// newline dropped, and no empty line after a final '\n'.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// Sets `line` to the next line; false when the text is used up.
  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t end = rest_.find('\n');
    line = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size() : end + 1);
    return true;
  }

 private:
  std::string_view rest_;
};

/// The whitespace-separated tokens of a line as `istream >>` yields them.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /// Sets `token` to the next token; false when only whitespace is left.
  bool next(std::string_view& token) {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    if (begin == rest_.size()) return false;
    std::size_t end = begin + 1;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return true;
  }

 private:
  std::string_view rest_;
};

/// The value of a netlist integer (docs/file-format.md): read as std::stoi
/// reads a whole string — an optional '+' or '-', then one or more decimal
/// digits — and nonnegative, from 0 to 2147483647 ("-0" is 0). Nothing for
/// any other token.
constexpr std::optional<int> parse_netlist_int(std::string_view token) {
  const bool negative = token.starts_with('-');
  if (negative || token.starts_with('+')) token.remove_prefix(1);
  if (token.empty()) return std::nullopt;
  std::int64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9' || (value = value * 10 + (c - '0')) > INT_MAX) return std::nullopt;
  }
  if (negative && value != 0) return std::nullopt;
  return static_cast<int>(value);
}

/// Appends the decimal digits of `n` (a '-' first when negative) to `out`.
template <std::integral Int>
void append_decimal(std::string& out, Int n) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, n);
  out.append(digits, result.ptr);
}

}  // namespace lid::util
