#ifndef KGFD_UTIL_STRING_UTIL_H_
#define KGFD_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kgfd {

/// Splits on a single delimiter character; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a whole base-10 int64. Empty input, trailing garbage ("12x")
/// and values outside [-2^63, 2^63 - 1] are InvalidArgument, whose message
/// ("is not an integer: ...", "is out of the int64 range: ...") reads as
/// the tail of a sentence naming the flag or key.
Result<int64_t> ParseInt64(const std::string& text);

/// ParseInt64 over [0, 2^64 - 1]; a negative is "must be >= 0, got -1"
/// instead of wrapping the way strtoull does.
Result<uint64_t> ParseUint64(const std::string& text);

/// A whole double: "is not a number: 0.5x", "is out of the double range".
Result<double> ParseDouble(const std::string& text);

}  // namespace kgfd

#endif  // KGFD_UTIL_STRING_UTIL_H_
