#include "util/flags.h"

#include <map>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace kgfd {
namespace {

template <typename T>
T OrAbort(Result<T> value) {
  return std::move(value).ValueOrDie("command line");
}

}  // namespace

Result<Flags> Flags::Parse(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values[std::string(arg)] = argv[++i];
    } else {
      values[std::string(arg)] = "true";
    }
  }
  Flags flags;
  flags.config_ = ConfigFile::FromFlags(std::move(values));
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  return config_.GetString(name, default_value);
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  return OrAbort(config_.GetInt(name, default_value));
}

size_t Flags::GetSize(const std::string& name, size_t default_value) const {
  return OrAbort(config_.GetUint(name, default_value));
}

uint64_t Flags::GetUint64(const std::string& name,
                          uint64_t default_value) const {
  return OrAbort(config_.GetUint(name, default_value));
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  return OrAbort(config_.GetDouble(name, default_value));
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  return OrAbort(config_.GetBool(name, default_value));
}

}  // namespace kgfd
