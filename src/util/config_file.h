#ifndef KGFD_UTIL_CONFIG_FILE_H_
#define KGFD_UTIL_CONFIG_FILE_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgfd {

/// Flat `key = value` configuration file (a minimal stand-in for the YAML
/// job definitions the paper praises in LibKGE §4.1.1). Grammar:
///   * one `dotted.key = value` pair per line,
///   * `#` starts a comment (full-line or trailing),
///   * blank lines ignored, whitespace trimmed,
///   * duplicate keys are an error (config typos should not silently win).
/// Flags (util/flags.h) keep the command line here too, so every front end
/// parses a value through the same checked getters.
class ConfigFile {
 public:
  static Result<ConfigFile> Load(const std::string& path);
  /// Parses from a string (used by tests and inline configs).
  static Result<ConfigFile> Parse(const std::string& text);
  /// Wraps command-line flags already split into pairs. Errors then name a
  /// key as "--key" rather than "config key 'key'".
  static ConfigFile FromFlags(std::map<std::string, std::string> entries);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  /// The typed getters return the default for an absent key, and a
  /// KeyError for a malformed value (a typo must not run as 0, as its
  /// numeric prefix or as `true`). GetUint, for counts and seeds, takes
  /// [0, 2^64 - 1] and rejects a negative instead of wrapping it; GetBool
  /// takes true/1 and false/0 only.
  Result<int64_t> GetInt(const std::string& key, int64_t default_value) const;
  Result<uint64_t> GetUint(const std::string& key,
                           uint64_t default_value) const;
  Result<double> GetDouble(const std::string& key,
                           double default_value) const;
  Result<bool> GetBool(const std::string& key, bool default_value) const;

  /// InvalidArgument "<key as this source spells it> <what>", e.g.
  /// "config key 'discovery.top_n' must be >= 1, got 0" or "--top_n ...".
  Status KeyError(const std::string& key, const std::string& what) const;

  /// Reads `key` through `parse` (one of the Parse* functions, or an enum's
  /// FromName), marking it consumed; a parse error becomes a KeyError.
  template <typename T>
  Result<T> Get(const std::string& key, T default_value,
                Result<T> (*parse)(const std::string&)) const {
    consumed_[key] = true;
    auto it = entries_.find(key);
    if (it == entries_.end()) return default_value;
    Result<T> v = parse(it->second);
    if (!v.ok()) return KeyError(key, v.status().message());
    return v;
  }

  /// Keys no getter has read so far.
  std::vector<std::string> UnconsumedKeys() const;
  /// InvalidArgument naming every unread key ("unknown config key 'x'",
  /// "unknown flag --x"), else OK. A caller that has read every key it
  /// knows calls it, so a typo fails instead of running the default.
  Status CheckAllRead() const;

 private:
  std::map<std::string, std::string> entries_;
  bool flag_names_ = false;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace kgfd

#endif  // KGFD_UTIL_CONFIG_FILE_H_
