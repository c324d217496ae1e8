/// Microbenchmarks of the graph-analytics substrate: the per-call costs
/// behind Figure 2's runtime gaps (triangle counting and clustering are
/// what make CLUSTERING_* strategies expensive; c4 is what disqualifies
/// CLUSTERING_SQUARES).

#include <benchmark/benchmark.h>

#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kg/synthetic.h"

namespace kgfd {
namespace {

/// Arg 0 of the adjacency and triangle benches: Fb15k237Config(1.0), the
/// per-call cost at the paper's FB15K-237 scale (14,541 entities).
constexpr int64_t kFb15k237Scale = 0;

/// A synthetic KG with `num_entities` entities and 10 triples per entity,
/// or the full-size FB15K-237 preset for kFb15k237Scale.
Dataset MakeDataset(int64_t num_entities) {
  if (num_entities == kFb15k237Scale) {
    return std::move(GenerateSyntheticDataset(Fb15k237Config(1.0)))
        .ValueOrDie("dataset");
  }
  SyntheticConfig c;
  c.num_entities = static_cast<size_t>(num_entities);
  c.num_relations = 8;
  c.num_train = static_cast<size_t>(num_entities) * 10;
  c.num_valid = 10;
  c.num_test = 10;
  c.closure_probability = 0.3;
  c.seed = 11;
  return std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
}

void BM_AdjacencyBuild(benchmark::State& state) {
  const Dataset dataset = MakeDataset(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Adjacency::FromTripleStore(dataset.train()));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * dataset.train().size()));
}
BENCHMARK(BM_AdjacencyBuild)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Arg(kFb15k237Scale)
    ->Unit(benchmark::kMillisecond);

void BM_TriangleCounting(benchmark::State& state) {
  const Dataset dataset = MakeDataset(state.range(0));
  const Adjacency adj = Adjacency::FromTripleStore(dataset.train());
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalTriangleCounts(adj));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * adj.num_edges()));
}
BENCHMARK(BM_TriangleCounting)
    ->Arg(200)
    ->Arg(800)
    ->Arg(3200)
    ->Arg(kFb15k237Scale)
    ->Unit(benchmark::kMillisecond);

void BM_ClusteringCoefficients(benchmark::State& state) {
  const Dataset dataset = MakeDataset(state.range(0));
  const Adjacency adj = Adjacency::FromTripleStore(dataset.train());
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalClusteringCoefficients(adj));
  }
}
BENCHMARK(BM_ClusteringCoefficients)->Arg(200)->Arg(800)->Arg(3200);

void BM_SquareClustering(benchmark::State& state) {
  const Dataset dataset = MakeDataset(state.range(0));
  const Adjacency adj = Adjacency::FromTripleStore(dataset.train());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquareClusteringCoefficients(adj));
  }
}
// Deliberately smaller sizes: this is the expensive one (paper §4.3).
BENCHMARK(BM_SquareClustering)->Arg(200)->Arg(400)->Arg(800);

void BM_DegreeComputation(benchmark::State& state) {
  const Dataset dataset = MakeDataset(state.range(0));
  const Adjacency adj = Adjacency::FromTripleStore(dataset.train());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Degrees(adj));
  }
}
BENCHMARK(BM_DegreeComputation)->Arg(200)->Arg(800)->Arg(3200);

}  // namespace
}  // namespace kgfd
