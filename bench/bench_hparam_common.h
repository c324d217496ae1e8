#ifndef KGFD_BENCH_BENCH_HPARAM_COMMON_H_
#define KGFD_BENCH_BENCH_HPARAM_COMMON_H_

/// Shared setup for the hyperparameter benches (Figures 7-10): FB15K-237
/// with TransE, the configuration the paper tunes on (§4.3), plus the
/// paper's grid-search values for top_n and max_candidates.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/discovery.h"
#include "core/experiment.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "util/flags.h"
#include "util/table.h"

namespace kgfd {
namespace bench {

/// The paper's §4.3.1 grid values.
inline std::vector<size_t> MaxCandidatesGrid() {
  return {50, 100, 200, 300, 400, 500, 700};
}
inline std::vector<size_t> TopNGrid() {
  return {100, 200, 300, 400, 500, 700};
}

struct HparamSetup {
  Dataset dataset;
  std::unique_ptr<Model> model;
  uint64_t seed;
};

/// FB15K-237-like data + trained TransE. Default scale 20 keeps the entity
/// count (~727) above the paper's largest top_n so the threshold stays
/// meaningful.
inline HparamSetup MakeHparamSetup(int argc, char** argv,
                                   double default_scale = 20.0) {
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const double scale = flags.GetDouble("scale", default_scale);
  const uint64_t seed = flags.GetUint64("seed", 42);
  ExperimentConfig config;
  config.embedding_dim = flags.GetSize("dim", 16);
  config.epochs = flags.GetSize("epochs", 8);
  config.seed = seed;
  flags.config().CheckAllRead().AbortIfNotOk("command line");
  Dataset dataset =
      std::move(GenerateSyntheticDataset(Fb15k237Config(scale, seed)))
          .ValueOrDie("dataset");
  std::printf("setup: %s at scale %.0f (%zu entities, %zu relations, %zu "
              "train triples), TransE dim=%zu\n\n",
              dataset.name().c_str(), scale, dataset.num_entities(),
              dataset.num_relations(), dataset.train().size(),
              config.embedding_dim);
  auto model =
      std::move(TrainModel(
                    ModelKind::kTransE,
                    DefaultModelConfig(ModelKind::kTransE, dataset, config),
                    dataset.train(),
                    DefaultTrainerConfig(ModelKind::kTransE, config)))
          .ValueOrDie("train");
  return HparamSetup{std::move(dataset), std::move(model), seed};
}

inline DiscoveryResult RunOnce(const HparamSetup& setup,
                               SamplingStrategy strategy, size_t top_n,
                               size_t max_candidates) {
  DiscoveryOptions options;
  options.strategy = strategy;
  options.top_n = top_n;
  options.max_candidates = max_candidates;
  options.seed = setup.seed ^ (top_n * 1315423911u) ^ max_candidates;
  return std::move(DiscoverFacts(*setup.model, setup.dataset.train(),
                                 options))
      .ValueOrDie("discover");
}

}  // namespace bench
}  // namespace kgfd

#endif  // KGFD_BENCH_BENCH_HPARAM_COMMON_H_
