#ifndef KGFD_OBS_EXPORT_H_
#define KGFD_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace kgfd {

/// Human-readable dump, one metric per line (counters, then gauges, then
/// histograms with per-bucket counts).
std::string MetricsToText(const MetricsSnapshot& snapshot);

/// JSON document with top-level "counters" / "gauges" / "histograms"
/// objects. Histogram buckets carry their inclusive upper bound as "le"
/// (the overflow bucket uses the string "+Inf", Prometheus-style); doubles
/// are printed with round-trip precision.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Snapshots `registry` and writes MetricsToJson to `path`.
Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path);

}  // namespace kgfd

#endif  // KGFD_OBS_EXPORT_H_
