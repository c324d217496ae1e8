#ifndef KGFD_CORE_DISCOVERY_OPTIONS_H_
#define KGFD_CORE_DISCOVERY_OPTIONS_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <variant>

#include "core/discovery.h"
#include "util/config_file.h"
#include "util/status.h"

namespace kgfd {

static_assert(std::is_same_v<size_t, uint64_t>,
              "counts and seeds share the unsigned row type");

/// One DiscoveryOptions knob of the front ends: `kgfd_cli discover` reads
/// it as `--<name>`, `kgfd_cli run` configs and kgfd_server POST bodies as
/// `discovery.<name>`. The table of these rows is the only place a knob's
/// key is spelled. cache_weights, rank_aggregation and relations are
/// settable from code only.
struct DiscoveryOptionRow {
  const char* name;
  std::variant<SamplingStrategy DiscoveryOptions::*, bool DiscoveryOptions::*,
               uint64_t DiscoveryOptions::*, double DiscoveryOptions::*>
      member;
  double min;  ///< smallest accepted value of a numeric row
  const char* doc;
};

std::span<const DiscoveryOptionRow> DiscoveryOptionTable();

/// Sets every knob whose key (`prefix` + row name) `source` has, through
/// ConfigFile's checked getters and the row's range; an absent key keeps
/// the value already in `options`, so the caller's defaults stand. Every
/// row's key is marked consumed for the caller's unknown-key check.
Status ApplyDiscoveryOptions(const ConfigFile& source,
                             const std::string& prefix,
                             DiscoveryOptions* options);

/// The row's value in `options` as text ("500", "true", "GRAPH_DEGREE").
std::string DiscoveryOptionValue(const DiscoveryOptionRow& row,
                                 const DiscoveryOptions& options);

/// InvalidArgument naming the first knob outside its row's range ("top_n
/// must be >= 1, got 0"); ValidateDiscoveryOptions runs it.
Status CheckDiscoveryOptionRanges(const DiscoveryOptions& options);

/// One command-line usage line per row, with its doc and default.
std::string DiscoveryOptionsUsage();

}  // namespace kgfd

#endif  // KGFD_CORE_DISCOVERY_OPTIONS_H_
