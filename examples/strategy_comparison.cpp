/// Compares all six sampling strategies on one dataset/model pair and
/// prints the guideline table from the paper's conclusions: which strategy
/// to pick for quality (MRR), throughput (facts/hour) or runtime.
///
/// Run:  ./build/examples/strategy_comparison [--scale N] [--model NAME]

#include <cstdio>
#include <string>

#include "kgfd.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kgfd;
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const double scale = flags.GetDouble("scale", 250.0);
  const std::string model_name = flags.GetString("model", "TransE");
  flags.config().CheckAllRead().AbortIfNotOk("command line");

  Dataset dataset =
      std::move(GenerateSyntheticDataset(Fb15k237Config(scale, 42)))
          .ValueOrDie("dataset");
  std::printf("dataset %s at scale %.0f: %zu entities, %zu relations, "
              "%zu training triples\n\n",
              dataset.name().c_str(), scale, dataset.num_entities(),
              dataset.num_relations(), dataset.train().size());

  const ModelKind kind =
      std::move(ModelKindFromName(model_name)).ValueOrDie("model name");
  ExperimentConfig config;
  config.scale = scale;
  config.embedding_dim = 16;
  config.epochs = 10;
  config.discovery.top_n = 200;
  config.discovery.max_candidates = 300;
  auto model = std::move(TrainModel(kind,
                                    DefaultModelConfig(kind, dataset, config),
                                    dataset.train(),
                                    DefaultTrainerConfig(kind, config)))
                   .ValueOrDie("train");

  Table table({"strategy", "facts", "MRR", "runtime_s", "facts_per_hour",
               "weight_cost_s"});
  for (SamplingStrategy strategy :
       {SamplingStrategy::kUniformRandom, SamplingStrategy::kEntityFrequency,
        SamplingStrategy::kGraphDegree,
        SamplingStrategy::kClusteringCoefficient,
        SamplingStrategy::kClusteringTriangles,
        SamplingStrategy::kClusteringSquares}) {
    DiscoveryOptions options = config.discovery;
    options.strategy = strategy;
    options.seed = 9;
    DiscoveryResult result =
        std::move(DiscoverFacts(*model, dataset.train(), options))
            .ValueOrDie("discover");
    table.AddRow({SamplingStrategyName(strategy),
                  Table::Fmt(result.stats.num_facts),
                  Table::Fmt(DiscoveryMrr(result.facts), 4),
                  Table::Fmt(result.stats.total_seconds, 2),
                  Table::Fmt(result.stats.FactsPerHour(), 0),
                  Table::Fmt(result.stats.weight_seconds, 2)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf(
      "Guidelines (paper §4.2.4 / §7):\n"
      "  * quality:     ENTITY_FREQUENCY or CLUSTERING_TRIANGLES\n"
      "  * consistency: GRAPH_DEGREE or CLUSTERING_TRIANGLES\n"
      "  * throughput:  CLUSTERING_TRIANGLES\n"
      "  * avoid:       UNIFORM_RANDOM, CLUSTERING_COEFFICIENT (quality),\n"
      "                 CLUSTERING_SQUARES (runtime)\n");
  return 0;
}
