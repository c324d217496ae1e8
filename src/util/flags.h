#ifndef KGFD_UTIL_FLAGS_H_
#define KGFD_UTIL_FLAGS_H_

#include <map>
#include <string>

#include "util/status.h"

namespace kgfd {

/// Minimal command-line flag parser for the bench and example binaries.
/// Accepts `--name=value` and `--name value`; bare `--name` is treated as
/// the boolean "true". Unknown positional arguments are rejected.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Aborts, naming the flag, when the value is not a whole int64
  /// (ParseInt64): a typo must not run as 0 or as its numeric prefix.
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  /// GetInt for a count, size or id cast to an unsigned type: also aborts
  /// on a negative value instead of letting it wrap to a huge one.
  size_t GetSize(const std::string& name, size_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace kgfd

#endif  // KGFD_UTIL_FLAGS_H_
