// Whole-token numeric flag parsing shared by the command-line tools: a
// value either parses completely or is rejected, so a typo exits 2 with a
// named error instead of silently becoming 0 (what atoi/strtoull do).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace agilla::tools {

/// An unsigned decimal integer spanning all of `text` (no sign, no
/// spaces, no trailing characters, no overflow); nullopt otherwise.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// The same for a flag's value, which is nullptr when the flag ended the
/// command line.
inline std::optional<std::uint64_t> parse_u64(const char* text) {
  if (text == nullptr) {
    return std::nullopt;
  }
  return parse_u64(std::string_view(text));
}

/// A finite number spanning all of `text`; nullopt otherwise.
inline std::optional<double> parse_finite(std::string_view text) {
  const std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (owned.empty() || end != owned.c_str() + owned.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace agilla::tools
