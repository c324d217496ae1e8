/// Prints the structural profile of the four synthetic benchmark datasets:
/// Table-1-style metadata plus the graph statistics (degrees, triangles,
/// clustering coefficients) that drive the sampling strategies.
///
/// Run:  ./build/examples/dataset_explorer [--scale N]

#include <cstdio>

#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kgfd.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kgfd;
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const double scale = flags.GetDouble("scale", 200.0);
  flags.config().CheckAllRead().AbortIfNotOk("command line");

  Table table({"dataset", "entities", "relations", "train", "avg_deg",
               "avg_cc", "tri_sum", "density", "inv_leakage"});
  for (const SyntheticConfig& config : AllDatasetConfigs(scale, 42)) {
    Dataset dataset =
        std::move(GenerateSyntheticDataset(config)).ValueOrDie("generate");
    const Adjacency adj = Adjacency::FromTripleStore(dataset.train());
    const std::vector<uint64_t> triangles = LocalTriangleCounts(adj);
    const std::vector<double> cc =
        LocalClusteringCoefficients(adj, triangles);
    uint64_t tri_sum = 0;
    for (uint64_t t : triangles) tri_sum += t;
    const KgShape shape = ComputeShape(dataset.train());
    double cc_mean = 0.0;
    for (double c : cc) cc_mean += c;
    cc_mean /= static_cast<double>(cc.size());
    // Inverse-relation test leakage (the FB15K/WN18 flaw, paper §4.1.2);
    // a well-constructed benchmark keeps this low.
    const double leakage =
        std::move(TestLeakageScore(dataset)).ValueOrDie("leakage");
    table.AddRow({dataset.name(), Table::Fmt(dataset.num_entities()),
                  Table::Fmt(dataset.num_relations()),
                  Table::Fmt(dataset.train().size()),
                  Table::Fmt(shape.avg_relations_per_entity, 2),
                  Table::Fmt(cc_mean, 4), Table::Fmt(size_t{tri_sum}),
                  Table::Fmt(shape.density, 8), Table::Fmt(leakage, 4)});

    std::printf("%s: clustering coefficient distribution\n",
                dataset.name().c_str());
    Histogram hist(0.0, 1.0, 10);
    hist.AddAll(cc);
    std::printf("%s\n", hist.ToAscii(40).c_str());
  }
  std::printf("%s\n", table.ToAscii().c_str());
  return 0;
}
