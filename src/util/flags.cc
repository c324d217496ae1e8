#include "util/flags.h"

#include <cstdlib>
#include <string_view>

#include "util/string_util.h"

namespace kgfd {

Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[std::string(arg)] = argv[++i];
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  Result<int64_t> v = ParseInt64(it->second);
  if (!v.ok()) {
    Status::InvalidArgument("--" + name + " " + v.status().message())
        .AbortIfNotOk("command line");
  }
  return v.value();
}

size_t Flags::GetSize(const std::string& name, size_t default_value) const {
  const int64_t v = GetInt(name, static_cast<int64_t>(default_value));
  if (v < 0) {
    Status::InvalidArgument("--" + name + " must be >= 0, got " +
                            std::to_string(v))
        .AbortIfNotOk("command line");
  }
  return static_cast<size_t>(v);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value
                             : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

}  // namespace kgfd
