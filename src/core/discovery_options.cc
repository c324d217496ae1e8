#include "core/discovery_options.h"

#include <sstream>

#include "core/strategy.h"

namespace kgfd {
namespace {

using O = DiscoveryOptions;

constexpr DiscoveryOptionRow kRows[] = {
    {"strategy", &O::strategy, 0, "sampling strategy"},
    {"top_n", &O::top_n, 1, "keep candidates ranked within this"},
    {"max_candidates", &O::max_candidates, 1, "candidates per relation"},
    {"max_iterations", &O::max_iterations, 1,
     "generation retries per relation"},
    {"type_filter", &O::type_filter, 0,
     "drop candidates outside the seen domain/range"},
    {"filtered_ranking", &O::filtered_ranking, 0,
     "skip known facts among the corruptions"},
    {"seed", &O::seed, 0, "sampling seed, 0 to 2^64 - 1"},
    {"adaptive_rounds", &O::adaptive_rounds, 1,
     "ADAPTIVE: bandit rounds per relation budget"},
    {"adaptive_exploration", &O::adaptive_exploration, 0,
     "ADAPTIVE: UCB1 exploration constant"},
    {"max_candidate_memory_bytes", &O::max_candidate_memory_bytes, 1,
     "per-relation candidate memory cap"},
};

template <typename Field, typename T>
constexpr bool kIs = std::is_same_v<std::decay_t<Field>, T>;

/// Empty when the row's value in `options` is in range, else why not.
std::string RangeError(const DiscoveryOptionRow& row,
                       const DiscoveryOptions& options) {
  // Negated >= so that a NaN is out of range too.
  const bool in_range = std::visit(
      [&](auto member) {
        const auto& v = options.*member;
        if constexpr (kIs<decltype(v), uint64_t> || kIs<decltype(v), double>) {
          return static_cast<double>(v) >= row.min;
        }
        return true;
      },
      row.member);
  if (in_range) return "";
  std::ostringstream min;
  min << row.min;
  return "must be >= " + min.str() + ", got " +
         DiscoveryOptionValue(row, options);
}

}  // namespace

std::span<const DiscoveryOptionRow> DiscoveryOptionTable() { return kRows; }

std::string DiscoveryOptionValue(const DiscoveryOptionRow& row,
                                 const DiscoveryOptions& options) {
  return std::visit(
      [&](auto member) {
        std::ostringstream out;
        if constexpr (kIs<decltype(options.*member), SamplingStrategy>) {
          out << SamplingStrategyName(options.*member);
        } else {
          out << std::boolalpha << options.*member;
        }
        return out.str();
      },
      row.member);
}

Status CheckDiscoveryOptionRanges(const DiscoveryOptions& options) {
  for (const DiscoveryOptionRow& row : kRows) {
    const std::string range_error = RangeError(row, options);
    if (!range_error.empty()) {
      return Status::InvalidArgument(row.name + (" " + range_error));
    }
  }
  return Status::OK();
}

Status ApplyDiscoveryOptions(const ConfigFile& source,
                             const std::string& prefix,
                             DiscoveryOptions* options) {
  for (const DiscoveryOptionRow& row : kRows) {
    const std::string key = prefix + row.name;
    KGFD_RETURN_NOT_OK(std::visit(
        [&](auto member) -> Status {
          auto& v = options->*member;
          if constexpr (kIs<decltype(v), SamplingStrategy>) {
            KGFD_ASSIGN_OR_RETURN(
                v, source.Get(key, v, &SamplingStrategyFromName));
          } else if constexpr (kIs<decltype(v), bool>) {
            KGFD_ASSIGN_OR_RETURN(v, source.GetBool(key, v));
          } else if constexpr (kIs<decltype(v), uint64_t>) {
            KGFD_ASSIGN_OR_RETURN(v, source.GetUint(key, v));
          } else {
            KGFD_ASSIGN_OR_RETURN(v, source.GetDouble(key, v));
          }
          return Status::OK();
        },
        row.member));
    const std::string range_error = RangeError(row, *options);
    if (source.Has(key) && !range_error.empty()) {
      return source.KeyError(key, range_error);
    }
  }
  return Status::OK();
}

std::string DiscoveryOptionsUsage() {
  static constexpr const char* kMetavar[] = {"NAME", "BOOL", "N", "X"};
  DiscoveryOptions defaults;
  defaults.strategy = DefaultSamplingStrategy();
  std::string usage;
  for (const DiscoveryOptionRow& row : kRows) {
    usage += std::string("    [--") + row.name + " " +
             kMetavar[row.member.index()] + "] " + row.doc + " (default " +
             DiscoveryOptionValue(row, defaults) + ")\n";
  }
  return usage;
}

}  // namespace kgfd
