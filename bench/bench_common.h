#ifndef KGFD_BENCH_BENCH_COMMON_H_
#define KGFD_BENCH_BENCH_COMMON_H_

/// Shared plumbing for the paper-reproduction bench binaries: flag parsing
/// into an ExperimentConfig and paper-shaped rendering of the comparative
/// grid (datasets x models x strategies).
///
/// Defaults are sized so every bench finishes in tens of seconds on one
/// core. To approach the paper's full experiment, pass
///   --scale 1 --top_n 500 --max_candidates 500 --epochs 100
/// (and expect the paper's multi-hour runtimes).

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/table.h"

namespace kgfd {
namespace bench {

inline ExperimentConfig ConfigFromFlags(int argc, char** argv) {
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  ExperimentConfig config;
  // Scale 40 keeps entity counts in the hundreds-to-thousands so the
  // default top_n=100 is an actually selective quality threshold (the
  // paper uses 500 of ~14.5k-123k entities).
  config.scale = flags.GetDouble("scale", 40.0);
  config.embedding_dim = flags.GetSize("dim", 16);
  config.epochs = flags.GetSize("epochs", 10);
  config.seed = flags.GetUint64("seed", 42);
  config.discovery.top_n = flags.GetSize("top_n", 100);
  config.discovery.max_candidates = flags.GetSize("max_candidates", 200);
  flags.config().CheckAllRead().AbortIfNotOk("command line");
  return config;
}

/// Prints one paper-figure-style table per dataset: rows = models, columns
/// = strategy abbreviations (UR EF GD CC CT, the paper's x-axis grouping),
/// cells = `value(cell)`.
inline void PrintPerDatasetGrids(
    const std::vector<ExperimentCell>& cells, const std::string& metric_name,
    const std::function<std::string(const ExperimentCell&)>& value) {
  // Preserve first-seen order of datasets, models and strategies.
  std::vector<std::string> datasets, models, strategies;
  auto remember = [](std::vector<std::string>* v, const std::string& s) {
    for (const std::string& x : *v) {
      if (x == s) return;
    }
    v->push_back(s);
  };
  std::map<std::string, std::map<std::string, std::string>> grid;
  for (const ExperimentCell& cell : cells) {
    remember(&datasets, cell.dataset);
    remember(&models, cell.model);
    remember(&strategies, cell.strategy_abbrev);
    grid[cell.dataset + "|" + cell.model][cell.strategy_abbrev] =
        value(cell);
  }
  for (const std::string& dataset : datasets) {
    std::printf("-- %s: %s by model (rows) and strategy (columns) --\n",
                dataset.c_str(), metric_name.c_str());
    std::vector<std::string> header = {"model"};
    header.insert(header.end(), strategies.begin(), strategies.end());
    Table table(header);
    for (const std::string& model : models) {
      std::vector<std::string> row = {model};
      for (const std::string& strategy : strategies) {
        row.push_back(grid[dataset + "|" + model][strategy]);
      }
      table.AddRow(row);
    }
    std::printf("%s\n", table.ToAscii().c_str());
  }
}

}  // namespace bench
}  // namespace kgfd

#endif  // KGFD_BENCH_BENCH_COMMON_H_
