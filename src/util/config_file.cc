#include "util/config_file.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace kgfd {

Result<ConfigFile> ConfigFile::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open config: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

Result<ConfigFile> ConfigFile::Parse(const std::string& text) {
  ConfigFile config;
  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string line = raw_line;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("config line " +
                                     std::to_string(line_no) +
                                     ": expected 'key = value'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("config line " +
                                     std::to_string(line_no) +
                                     ": empty key");
    }
    if (!config.entries_.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate config key: " + key);
    }
  }
  return config;
}

ConfigFile ConfigFile::FromFlags(std::map<std::string, std::string> entries) {
  ConfigFile flags;
  flags.entries_ = std::move(entries);
  flags.flag_names_ = true;
  return flags;
}

bool ConfigFile::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::string ConfigFile::GetString(const std::string& key,
                                  const std::string& default_value) const {
  consumed_[key] = true;
  auto it = entries_.find(key);
  return it == entries_.end() ? default_value : it->second;
}

Status ConfigFile::KeyError(const std::string& key,
                            const std::string& what) const {
  return Status::InvalidArgument(
      (flag_names_ ? "--" + key : "config key '" + key + "'") + " " + what);
}

Result<int64_t> ConfigFile::GetInt(const std::string& key,
                                   int64_t default_value) const {
  return Get(key, default_value, &ParseInt64);
}

Result<uint64_t> ConfigFile::GetUint(const std::string& key,
                                     uint64_t default_value) const {
  return Get(key, default_value, &ParseUint64);
}

Result<double> ConfigFile::GetDouble(const std::string& key,
                                     double default_value) const {
  return Get(key, default_value, &ParseDouble);
}

Result<bool> ConfigFile::GetBool(const std::string& key,
                                 bool default_value) const {
  return Get<bool>(key, default_value, [](const std::string& text) {
    if (text == "true" || text == "1") return Result<bool>(true);
    if (text == "false" || text == "0") return Result<bool>(false);
    return Result<bool>(Status::InvalidArgument("is not a boolean: " + text));
  });
}

std::vector<std::string> ConfigFile::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : entries_) {
    if (!consumed_.count(key)) out.push_back(key);
  }
  return out;
}

Status ConfigFile::CheckAllRead() const {
  std::vector<std::string> unread = UnconsumedKeys();
  if (unread.empty()) return Status::OK();
  for (std::string& key : unread) {
    key = flag_names_ ? "--" + key : "'" + key + "'";
  }
  return Status::InvalidArgument(
      (flag_names_ ? "unknown flag " : "unknown config key ") +
      Join(unread, ", "));
}

}  // namespace kgfd
