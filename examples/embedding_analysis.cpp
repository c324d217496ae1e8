/// Tour of the embedding-analysis APIs (the AmpliGraph Discovery-API
/// companions of DiscoverFacts): top-n query completion, nearest
/// neighbors, duplicate detection, k-means clustering — plus the
/// inverse-relation leakage check on the underlying dataset.
///
/// Run:  ./build/examples/embedding_analysis [--scale N]

#include <cstdio>

#include "kgfd.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kgfd;
  Flags flags = std::move(Flags::Parse(argc, argv)).ValueOrDie("flags");
  const double scale = flags.GetDouble("scale", 200.0);
  flags.config().CheckAllRead().AbortIfNotOk("command line");

  Dataset dataset =
      std::move(GenerateSyntheticDataset(CodexLConfig(scale, 42)))
          .ValueOrDie("dataset");
  std::printf("dataset %s: %zu entities, %zu relations, %zu train "
              "triples\n",
              dataset.name().c_str(), dataset.num_entities(),
              dataset.num_relations(), dataset.train().size());

  // Dataset hygiene first: the FB15K/WN18 inverse-leakage check (§4.1.2).
  const double leakage =
      std::move(TestLeakageScore(dataset)).ValueOrDie("leakage");
  std::printf("inverse-relation test leakage: %.3f "
              "(FB15K was rebuilt into FB15K-237 to push this down)\n\n",
              leakage);

  ModelConfig mc;
  mc.num_entities = dataset.num_entities();
  mc.num_relations = dataset.num_relations();
  mc.embedding_dim = 24;
  TrainerConfig tc;
  tc.epochs = 15;
  tc.loss = LossKind::kSoftplus;
  tc.optimizer.learning_rate = 0.05;
  auto model = std::move(TrainModel(ModelKind::kComplEx, mc,
                                    dataset.train(), tc))
                   .ValueOrDie("train");

  // 1. Top-n completion of a partial triple (s, r, ?).
  const EntityId subject = 0;  // the most popular entity under Zipf
  const RelationId relation = 0;
  auto completions =
      std::move(QueryTopN(*model, dataset.train(), {subject, relation, 0},
                          QuerySlot::kObject, 5))
          .ValueOrDie("query");
  std::printf("top-5 new completions of (e%u, r%u, ?):\n", subject,
              relation);
  for (const ScoredTriple& st : completions) {
    std::printf("  -> e%-6u score=%+.4f\n", st.triple.object, st.score);
  }

  // 2. Nearest neighbors in embedding space.
  auto neighbors = std::move(FindNearestNeighbors(*model, subject, 5))
                       .ValueOrDie("neighbors");
  std::printf("\n5 nearest embedding-space neighbors of e%u:\n", subject);
  for (const Neighbor& n : neighbors) {
    std::printf("  e%-6u d=%.4f\n", n.entity, n.distance);
  }

  // 3. Near-duplicate entities.
  auto duplicates =
      std::move(FindDuplicates(*model, 0.35, /*max_entities=*/300))
          .ValueOrDie("duplicates");
  std::printf("\nentity pairs within embedding distance 0.35: %zu",
              duplicates.size());
  if (!duplicates.empty()) {
    std::printf(" (closest: e%u ~ e%u at %.4f)", duplicates[0].a,
                duplicates[0].b, duplicates[0].distance);
  }
  std::printf("\n");

  // 4. Embedding-space clustering.
  auto clusters =
      std::move(FindClusters(*model, 4)).ValueOrDie("clusters");
  std::vector<size_t> sizes(4, 0);
  for (uint32_t c : clusters.assignment) ++sizes[c];
  std::printf("\nk-means (k=4) over entity embeddings: inertia=%.2f, "
              "%zu iterations, cluster sizes [%zu, %zu, %zu, %zu]\n",
              clusters.inertia, clusters.iterations, sizes[0], sizes[1],
              sizes[2], sizes[3]);
  return 0;
}
