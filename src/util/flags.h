#ifndef KGFD_UTIL_FLAGS_H_
#define KGFD_UTIL_FLAGS_H_

#include <string>

#include "util/config_file.h"
#include "util/status.h"

namespace kgfd {

/// Minimal command-line flag parser for the tools, bench and example
/// binaries. Accepts `--name=value` and `--name value`; bare `--name` is
/// treated as the boolean "true". Unknown positional arguments are rejected.
/// Values are parsed by the checked getters of a ConfigFile; each getter
/// here aborts naming the flag ("--top_n is not an integer: 12x") where
/// ConfigFile would return that error.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv);

  bool Has(const std::string& name) const { return config_.Has(name); }
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  /// For counts and seeds: [0, 2^64 - 1]; a negative aborts, not wraps.
  size_t GetSize(const std::string& name, size_t default_value) const;
  uint64_t GetUint64(const std::string& name, uint64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// The flags as a key/value source: ApplyDiscoveryOptions reads it, and
  /// a command checks config().CheckAllRead() once it has read its flags.
  const ConfigFile& config() const { return config_; }

 private:
  ConfigFile config_;
};

}  // namespace kgfd

#endif  // KGFD_UTIL_FLAGS_H_
