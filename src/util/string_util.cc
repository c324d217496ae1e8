#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace kgfd {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt64(const std::string& text) {
  char* end = nullptr;
  errno = 0;  // strtoll reports overflow only through errno
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("is not an integer: " + text);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("is out of the int64 range: " + text);
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint64(const std::string& text) {
  // strtoull would wrap a negative, so a sign is checked as an int64 first.
  if (StartsWith(Trim(text), "-")) {
    KGFD_ASSIGN_OR_RETURN(const int64_t v, ParseInt64(text));
    if (v < 0) return Status::InvalidArgument("must be >= 0, got " + text);
  }
  char* end = nullptr;
  errno = 0;  // strtoull reports overflow only through errno
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("is not an integer: " + text);
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("is out of the uint64 range: " + text);
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDouble(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("is not a number: " + text);
  }
  if (errno == ERANGE && std::isinf(v)) {
    return Status::InvalidArgument("is out of the double range: " + text);
  }
  return v;
}

}  // namespace kgfd
