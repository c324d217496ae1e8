/// The perf-gate bench: the timed measurements that tools/perf_gate.py
/// checks against bench/gate.json, written as one flat JSON record
///   {"<check name>": number, ..., "kernel_backend": "avx2",
///    "hardware_concurrency": N, "threads": T}
///
///   scoring   batch-kernel ScoreObjectsBatch vs the per-triple Score() loop,
///             per model, on an FB15K-237-shaped embedding table (no
///             training: throughput depends on shapes, not values).
///   ranking   the ranking phase of one hot relation under a 4-thread pool
///             vs serially: the degenerate outer loop that inner ranking
///             parallelism exists for.
///   storage   LoadModel cold start, ram vs mmap, on a ~15 MiB checkpoint,
///             and int8 vs float entity storage ranking throughput.
///   adaptive  facts/hour of strategy=ADAPTIVE vs the best fixed
///             comparative strategy (faithful per-relation weights, as the
///             paper runs them), and the MODEL_SCORE sketch precompute as a
///             fraction of a MODEL_SCORE run.
///
/// Timings are best-of-K wall times. Correctness (batch == per-triple,
/// mmap == ram, thread-count and rerun identity) and the deterministic
/// MODEL_SCORE vs ENTITY_FREQUENCY ratio are ctest assertions, not gate
/// rows.
///
/// Usage: bench_gate [--scale F] [--out PATH]
///   --scale  multiplies every entity count and candidate budget (default 1;
///            smoke runs use a small fraction)

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "adaptive/score_sketch.h"
#include "core/discovery.h"
#include "core/strategy.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/kernels.h"
#include "kge/model.h"
#include "kge/trainer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

using Record = std::map<std::string, double>;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`repeats` wall time of `fn`. A value `fn` returns is destroyed
/// after the clock stops, so freeing a loaded model is not timed.
template <typename Fn>
double BestSeconds(size_t repeats, Fn&& fn) {
  double best = DBL_MAX;
  for (size_t rep = 0; rep < repeats; ++rep) {
    const double start = Now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      best = std::min(best, Now() - start);
    } else {
      const auto kept = fn();
      best = std::min(best, Now() - start);
    }
  }
  return best;
}

std::vector<SideQuery> SpreadQueries(size_t count, size_t entities,
                                     size_t relations) {
  std::vector<SideQuery> queries(count);
  for (size_t q = 0; q < count; ++q) {
    queries[q] = {static_cast<EntityId>((q * 7919u) % entities),
                  static_cast<RelationId>(q % relations)};
  }
  return queries;
}

std::unique_ptr<Model> UntrainedModel(ModelKind kind, const ModelConfig& mc) {
  Rng rng(1234);
  return std::move(CreateModel(kind, mc, &rng)).ValueOrDie("model");
}

/// A synthetic KG and a DistMult model trained on it.
struct TrainedKg {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

TrainedKg Train(SyntheticConfig sc, size_t dim, size_t epochs) {
  sc.num_train = sc.num_entities * 8;
  sc.num_valid = 50;
  sc.num_test = 50;
  Dataset dataset =
      std::move(GenerateSyntheticDataset(sc)).ValueOrDie("dataset");
  ModelConfig mc;
  mc.num_entities = dataset.num_entities();
  mc.num_relations = dataset.num_relations();
  mc.embedding_dim = dim;
  TrainerConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 256;
  tc.seed = 11;
  auto model =
      std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
          .ValueOrDie("model");
  return {std::move(dataset), std::move(model)};
}

void MeasureScoring(size_t entities, Record* record) {
  constexpr size_t kRelations = 237, kDim = 128, kQueries = 64, kRepeats = 3;
  const std::vector<SideQuery> queries =
      SpreadQueries(kQueries, entities, kRelations);
  const double pairs = static_cast<double>(kQueries) * entities;
  std::printf("scoring: %zu entities, dim %zu, %zu queries\n", entities, kDim,
              kQueries);
  const std::pair<ModelKind, const char*> kinds[] = {
      {ModelKind::kTransE, "TransE"},
      {ModelKind::kDistMult, "DistMult"},
      {ModelKind::kComplEx, "ComplEx"}};
  for (const auto& [kind, name] : kinds) {
    ModelConfig mc;
    mc.num_entities = entities;
    mc.num_relations = kRelations;
    mc.embedding_dim = kDim;
    auto model = UntrainedModel(kind, mc);
    std::vector<double> per_triple(kQueries * entities);
    const double per_triple_s = BestSeconds(kRepeats, [&] {
      for (size_t q = 0; q < kQueries; ++q) {
        for (EntityId e = 0; e < entities; ++e) {
          per_triple[q * entities + e] =
              model->Score({queries[q].entity, queries[q].relation, e});
        }
      }
    });
    std::vector<std::vector<double>> batch(kQueries);
    std::vector<std::vector<double>*> outs(kQueries);
    for (size_t q = 0; q < kQueries; ++q) outs[q] = &batch[q];
    const double batch_s = BestSeconds(kRepeats, [&] {
      model->ScoreObjectsBatch(queries.data(), kQueries, outs.data());
    });
    const std::string prefix = std::string("scoring.") + name;
    (*record)[prefix + ".batch_mscores_per_s"] = pairs / batch_s / 1e6;
    (*record)[prefix + ".batch_speedup"] = per_triple_s / batch_s;
    std::printf("  %-8s per-triple %8.2f Mscores/s   batch %8.2f Mscores/s"
                "   %.2fx\n",
                name, pairs / per_triple_s / 1e6, pairs / batch_s / 1e6,
                per_triple_s / batch_s);
  }
}

void MeasureRanking(size_t entities, size_t max_candidates, Record* record) {
  constexpr size_t kThreads = 4;
  SyntheticConfig sc;
  sc.name = "ranking";
  sc.num_entities = entities;
  sc.num_relations = 6;
  sc.seed = 7;
  const TrainedKg kg = Train(sc, /*dim=*/32, /*epochs=*/2);
  DiscoveryOptions options;
  options.strategy = SamplingStrategy::kEntityFrequency;
  options.top_n = 200;
  options.max_candidates = max_candidates;
  options.max_iterations = 8;
  options.seed = 99;
  options.relations = {kg.dataset.train().UsedRelations().front()};

  const auto serial =
      std::move(DiscoverFacts(*kg.model, kg.dataset.train(), options, nullptr))
          .ValueOrDie("serial discovery");
  ThreadPool pool(kThreads);
  const auto parallel =
      std::move(DiscoverFacts(*kg.model, kg.dataset.train(), options, &pool))
          .ValueOrDie("parallel discovery");
  const double serial_s = serial.stats.evaluation_seconds;
  const double parallel_s = parallel.stats.evaluation_seconds;
  (*record)["threads"] = kThreads;
  (*record)["ranking.parallel_speedup"] = serial_s / parallel_s;
  (*record)["ranking.candidates_per_s"] =
      static_cast<double>(parallel.stats.num_candidates) / parallel_s;
  std::printf("ranking: 1 hot relation, %zu candidates, %zu threads\n"
              "  serial %.3fs   parallel %.3fs   %.2fx\n",
              parallel.stats.num_candidates, kThreads, serial_s, parallel_s,
              serial_s / parallel_s);
}

void MeasureStorage(size_t entities, Record* record) {
  constexpr size_t kRelations = 237, kDim = 128, kQueries = 64, kRepeats = 5;
  ModelConfig mc;
  mc.num_entities = entities;
  mc.num_relations = kRelations;
  mc.embedding_dim = kDim;
  auto model = UntrainedModel(ModelKind::kDistMult, mc);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kgfd_bench_gate." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string float_path = (dir / "float.bin").string();
  const std::string int8_path = (dir / "int8.bin").string();
  SaveModel(model.get(), mc, float_path).AbortIfNotOk("save float");
  SaveQuantizedModel(model.get(), mc, EmbeddingDtype::kInt8, int8_path)
      .AbortIfNotOk("save int8");

  auto load = [](const std::string& path, EmbeddingBackend backend) {
    CheckpointLoadOptions options;
    options.backend = backend;
    return std::move(LoadModel(path, options)).ValueOrDie("load");
  };
  // Both loads run against a warm page cache, the conservative comparison:
  // cold I/O would only widen the gap.
  const double ram_s = BestSeconds(
      kRepeats, [&] { return load(float_path, EmbeddingBackend::kRam); });
  const double mmap_s = BestSeconds(
      kRepeats, [&] { return load(float_path, EmbeddingBackend::kMmap); });

  const std::vector<SideQuery> queries =
      SpreadQueries(kQueries, entities, kRelations);
  const double pairs = static_cast<double>(kQueries) * entities;
  auto mscores_per_s = [&](const Model& m) {
    std::vector<std::vector<double>> scores(kQueries);
    std::vector<std::vector<double>*> outs(kQueries);
    for (size_t q = 0; q < kQueries; ++q) outs[q] = &scores[q];
    return pairs /
           BestSeconds(kRepeats,
                       [&] {
                         m.ScoreObjectsBatch(queries.data(), kQueries,
                                             outs.data());
                       }) /
           1e6;
  };
  const double float_mscores =
      mscores_per_s(*load(float_path, EmbeddingBackend::kRam));
  const double int8_mscores =
      mscores_per_s(*load(int8_path, EmbeddingBackend::kRam));
  std::filesystem::remove_all(dir);

  (*record)["storage.cold_start_speedup"] = ram_s / mmap_s;
  (*record)["storage.float_mscores_per_s"] = float_mscores;
  (*record)["storage.int8_mscores_per_s"] = int8_mscores;
  (*record)["storage.int8_ranking_ratio"] = int8_mscores / float_mscores;
  std::printf("storage: %zu entities, dim %zu\n"
              "  cold start ram %.3f ms   mmap %.3f ms   %.1fx\n"
              "  ranking float %.2f Mscores/s   int8 %.2f Mscores/s   %.2fx\n",
              entities, kDim, ram_s * 1e3, mmap_s * 1e3, ram_s / mmap_s,
              float_mscores, int8_mscores, int8_mscores / float_mscores);
}

void MeasureAdaptive(size_t entities, size_t max_candidates, Record* record) {
  constexpr size_t kRepeats = 4;
  SyntheticConfig sc;
  sc.name = "adaptive";
  sc.num_entities = entities;
  sc.num_relations = 8;
  // Moderate triangle closure keeps the graph-structure arms competitive
  // with ENTITY_FREQUENCY without one arm dominating every relation: the
  // regime a per-relation scheduler is built for.
  sc.closure_probability = 0.2;
  sc.entity_zipf_exponent = 0.9;
  sc.seed = 7;
  const TrainedKg kg = Train(sc, /*dim=*/16, /*epochs=*/6);
  const TripleStore& train = kg.dataset.train();

  DiscoveryOptions base;
  base.top_n = 600;
  base.max_candidates = max_candidates;
  // Enough rounds that the forced first pass over the six arms is a small
  // slice of the budget.
  base.adaptive_rounds = 64;
  // Real reward gaps between arms are ~0.1 facts/candidate; a mostly-greedy
  // constant lets the short run exploit what the forced pass learned.
  base.adaptive_exploration = 0.1;
  base.seed = 99;

  const double sketch_s = BestSeconds(kRepeats, [&] {
    ComputeScoreSketch(*kg.model, train).ValueOrDie("sketch");
  });

  // The five fixed comparative strategies, MODEL_SCORE and ADAPTIVE, with
  // repeats interleaved round-robin so a transient host slowdown degrades
  // every strategy's samples alike and the ratios stay stable.
  std::vector<SamplingStrategy> timed = ComparativeStrategies();
  timed.push_back(SamplingStrategy::kModelScore);
  timed.push_back(SamplingStrategy::kAdaptive);
  std::vector<double> seconds(timed.size(), DBL_MAX);
  std::vector<size_t> facts(timed.size(), 0);
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    for (size_t i = 0; i < timed.size(); ++i) {
      DiscoveryOptions options = base;
      options.strategy = timed[i];
      const double start = Now();
      const DiscoveryResult result =
          std::move(DiscoverFacts(*kg.model, train, options))
              .ValueOrDie("discovery");
      seconds[i] = std::min(seconds[i], Now() - start);
      facts[i] = result.facts.size();
    }
  }
  auto facts_per_hour = [&](size_t i) {
    return static_cast<double>(facts[i]) / seconds[i] * 3600.0;
  };
  const size_t model_score = timed.size() - 2;
  const size_t adaptive = timed.size() - 1;
  size_t best = 0;
  std::printf("adaptive: %zu entities, %zu candidates/relation\n",
              kg.dataset.num_entities(), max_candidates);
  for (size_t i = 0; i < timed.size(); ++i) {
    if (i < model_score && facts_per_hour(i) > facts_per_hour(best)) best = i;
    std::printf("  %-22s %6zu facts  %.3fs  %12.0f facts/h\n",
                SamplingStrategyName(timed[i]), facts[i], seconds[i],
                facts_per_hour(i));
  }
  (*record)["adaptive.facts_per_hour"] = facts_per_hour(adaptive);
  (*record)["adaptive.vs_best_fixed"] =
      facts_per_hour(adaptive) / facts_per_hour(best);
  (*record)["adaptive.sketch_fraction"] = sketch_s / seconds[model_score];
  std::printf("  ADAPTIVE %.2fx best fixed %s; sketch %.3fs of %.3fs "
              "MODEL_SCORE run\n",
              facts_per_hour(adaptive) / facts_per_hour(best),
              SamplingStrategyName(timed[best]), sketch_s,
              seconds[model_score]);
}

int Run(int argc, char** argv) {
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const double scale = flags.GetDouble("scale", 1.0);
  const std::string out_path = flags.GetString("out", "BENCH_gate.json");
  flags.config().CheckAllRead().AbortIfNotOk("command line");
  auto scaled = [scale](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(std::llround(n * scale)));
  };

  Record record;
  record["hardware_concurrency"] = std::thread::hardware_concurrency();
  MeasureScoring(scaled(14541), &record);
  MeasureRanking(scaled(3000), scaled(20000), &record);
  MeasureStorage(scaled(30000), &record);
  MeasureAdaptive(scaled(3000), scaled(1500), &record);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  for (const auto& [key, value] : record) {
    std::fprintf(out, "  \"%s\": %.9g,\n", key.c_str(), value);
  }
  std::fprintf(out, "  \"kernel_backend\": \"%s\"\n}\n",
               kernels::ActiveKernelName());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) { return kgfd::Run(argc, argv); }
