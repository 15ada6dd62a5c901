// Whole-field decimal parsing for text that comes from outside the
// process: spec-name suffixes ("stray-2", "cmesh-4"), the fields of the
// lk, fault and burst grammars, fuzz repro lines and bench flags.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace mr {

/// Parses all of `text` as one decimal T in T's range: no whitespace, no
/// '+', no sign for unsigned T, no trailing text. Leaves *out untouched
/// and returns false otherwise.
template <typename T>
bool parse_decimal(std::string_view text, T* out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return false;
  *out = value;
  return true;
}

}  // namespace mr
