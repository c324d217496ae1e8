#include "util/config_file.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
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

bool ConfigFile::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::string ConfigFile::GetString(const std::string& key,
                                  const std::string& default_value) const {
  consumed_[key] = true;
  auto it = entries_.find(key);
  return it == entries_.end() ? default_value : it->second;
}

Result<int64_t> ConfigFile::GetInt(const std::string& key,
                                   int64_t default_value) const {
  consumed_[key] = true;
  auto it = entries_.find(key);
  if (it == entries_.end()) return default_value;
  Result<int64_t> v = ParseInt64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("config key '" + key + "' " +
                                   v.status().message());
  }
  return v;
}

Result<double> ConfigFile::GetDouble(const std::string& key,
                                     double default_value) const {
  consumed_[key] = true;
  auto it = entries_.find(key);
  if (it == entries_.end()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("config key '" + key +
                                   "' is not a number: " + it->second);
  }
  return v;
}

Result<bool> ConfigFile::GetBool(const std::string& key,
                                 bool default_value) const {
  consumed_[key] = true;
  auto it = entries_.find(key);
  if (it == entries_.end()) return default_value;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return Status::InvalidArgument("config key '" + key +
                                 "' is not a boolean: " + it->second);
}

std::vector<std::string> ConfigFile::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : entries_) {
    if (!consumed_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace kgfd
