#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace kgfd {
namespace {

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string MetricsToText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    out << "gauge " << name << " " << FmtDouble(gauge.value) << " max "
        << FmtDouble(gauge.max) << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out << "histogram " << name << " count " << h.total << " sum "
        << FmtDouble(h.sum) << " min " << FmtDouble(h.min) << " max "
        << FmtDouble(h.max) << "\n";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      out << "  le "
          << (b < h.upper_bounds.size() ? FmtDouble(h.upper_bounds[b])
                                        : std::string("+Inf"))
          << " " << h.counts[b] << "\n";
    }
  }
  return out.str();
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "" : ",") << "\n    \"" << EscapeJson(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : snapshot.gauges) {
    out << (first ? "" : ",") << "\n    \"" << EscapeJson(name)
        << "\": {\"value\": " << FmtDouble(gauge.value)
        << ", \"max\": " << FmtDouble(gauge.max) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out << (first ? "" : ",") << "\n    \"" << EscapeJson(name)
        << "\": {\"count\": " << h.total << ", \"sum\": " << FmtDouble(h.sum)
        << ", \"min\": " << FmtDouble(h.min)
        << ", \"max\": " << FmtDouble(h.max) << ", \"buckets\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out << ", ";
      out << "{\"le\": ";
      if (b < h.upper_bounds.size()) {
        out << FmtDouble(h.upper_bounds[b]);
      } else {
        out << "\"+Inf\"";
      }
      out << ", \"count\": " << h.counts[b] << "}";
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open " + path);
  file << MetricsToJson(registry.Snapshot());
  if (!file.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace kgfd
