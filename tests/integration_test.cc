#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "kgfd.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// End-to-end: a KG with strong deterministic structure (a bipartite
/// "works_at" pattern), a fraction of whose true triples are withheld from
/// training. Discovery must surface withheld facts at better ranks than the
/// model assigns to random non-facts.
class EndToEndTest : public ::testing::Test {
 protected:
  // People 0..19, companies 20..27. Person p works at company
  // 20 + (p % 4); co-workers know each other (same company).
  static constexpr EntityId kPeople = 20;
  static constexpr EntityId kCompanies = 8;
  static constexpr RelationId kWorksAt = 0;
  static constexpr RelationId kKnows = 1;

  void SetUp() override {
    dataset_ = std::make_unique<Dataset>("workplace", kPeople + kCompanies,
                                         2);
    std::vector<Triple> all;
    for (EntityId p = 0; p < kPeople; ++p) {
      all.push_back({p, kWorksAt, static_cast<EntityId>(20 + p % 4)});
    }
    for (EntityId a = 0; a < kPeople; ++a) {
      for (EntityId b = 0; b < kPeople; ++b) {
        if (a != b && a % 4 == b % 4) all.push_back({a, kKnows, b});
      }
    }
    // Withhold every 7th triple as a "missing fact".
    for (size_t i = 0; i < all.size(); ++i) {
      if (i % 7 == 3) {
        withheld_.push_back(all[i]);
      } else {
        ASSERT_TRUE(dataset_->train().Add(all[i]).ok());
      }
    }
    ModelConfig mc;
    mc.num_entities = dataset_->num_entities();
    mc.num_relations = dataset_->num_relations();
    mc.embedding_dim = 16;
    TrainerConfig tc;
    tc.epochs = 60;
    tc.batch_size = 32;
    tc.negatives_per_positive = 4;
    tc.loss = LossKind::kSoftplus;
    tc.optimizer.learning_rate = 0.05;
    tc.seed = 2024;
    model_ = std::move(TrainModel(ModelKind::kComplEx, mc,
                                  dataset_->train(), tc))
                 .ValueOrDie("train");
  }

  std::unique_ptr<Dataset> dataset_;
  std::vector<Triple> withheld_;
  std::unique_ptr<Model> model_;
};

TEST_F(EndToEndTest, WithheldFactsOutrankRandomNonFacts) {
  // Both splits rank against the training triples as the known set (the
  // dataset's valid and test splits are empty).
  TripleStore withheld(dataset_->num_entities(), dataset_->num_relations());
  ASSERT_TRUE(withheld.AddAll(withheld_).ok());

  // Random non-facts: people "working at" the wrong company.
  Rng rng(55);
  TripleStore random(dataset_->num_entities(), dataset_->num_relations());
  for (EntityId p = 0; p < kPeople; ++p) {
    const EntityId wrong =
        static_cast<EntityId>(20 + (p % 4 + 1 + rng.UniformInt(2)) % 4);
    const Triple t{p, kWorksAt, wrong};
    if (dataset_->train().Contains(t)) continue;
    ASSERT_TRUE(random.Add(t).ok());
  }
  ASSERT_GT(random.size(), 0u);

  auto withheld_metrics =
      EvaluateLinkPrediction(*model_, *dataset_, withheld);
  auto random_metrics = EvaluateLinkPrediction(*model_, *dataset_, random);
  ASSERT_TRUE(withheld_metrics.ok() && random_metrics.ok());
  EXPECT_GT(withheld_metrics.value().mrr, random_metrics.value().mrr)
      << "held-out true facts should outrank plausible-but-false ones";
}

TEST_F(EndToEndTest, DiscoveryFindsWithheldFacts) {
  DiscoveryOptions o;
  o.top_n = 10;
  o.max_candidates = 400;
  o.strategy = SamplingStrategy::kEntityFrequency;
  o.max_iterations = 5;
  o.seed = 7;
  auto result = DiscoverFacts(*model_, dataset_->train(), o);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().facts.empty());

  size_t withheld_hits = 0;
  for (const DiscoveredFact& fact : result.value().facts) {
    if (std::find(withheld_.begin(), withheld_.end(), fact.triple) !=
        withheld_.end()) {
      ++withheld_hits;
    }
  }
  // The discovered set must contain a non-trivial number of the actually
  // missing facts — the paper's raison d'être.
  EXPECT_GE(withheld_hits, 3u);
}

TEST_F(EndToEndTest, CheckpointPreservesDiscoveryOutput) {
  DiscoveryOptions o;
  o.top_n = 10;
  o.max_candidates = 200;
  o.strategy = SamplingStrategy::kGraphDegree;
  o.seed = 21;
  auto before = DiscoverFacts(*model_, dataset_->train(), o);
  ASSERT_TRUE(before.ok());

  const std::string path = ScratchPath("ckpt.bin");
  ModelConfig mc;
  mc.num_entities = dataset_->num_entities();
  mc.num_relations = dataset_->num_relations();
  mc.embedding_dim = 16;
  ASSERT_TRUE(SaveModel(model_.get(), mc, path).ok());
  auto reloaded = LoadModel(path);
  ASSERT_TRUE(reloaded.ok());
  std::filesystem::remove(path);

  auto after = DiscoverFacts(*reloaded.value(), dataset_->train(), o);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before.value().facts.size(), after.value().facts.size());
  for (size_t i = 0; i < before.value().facts.size(); ++i) {
    EXPECT_EQ(before.value().facts[i].triple,
              after.value().facts[i].triple);
    EXPECT_EQ(before.value().facts[i].rank, after.value().facts[i].rank);
  }
}

TEST_F(EndToEndTest, StrategiesProduceDifferentCandidateSets) {
  DiscoveryOptions o;
  o.top_n = 28;  // admit everything; compare generation, not filtering
  o.max_candidates = 120;
  o.seed = 5;
  o.strategy = SamplingStrategy::kUniformRandom;
  auto uniform = DiscoverFacts(*model_, dataset_->train(), o);
  o.strategy = SamplingStrategy::kEntityFrequency;
  auto frequency = DiscoverFacts(*model_, dataset_->train(), o);
  ASSERT_TRUE(uniform.ok() && frequency.ok());
  // Identical outputs across strategies would mean the weights are ignored.
  std::set<uint64_t> a, b;
  for (const auto& f : uniform.value().facts) a.insert(PackTriple(f.triple));
  for (const auto& f : frequency.value().facts) {
    b.insert(PackTriple(f.triple));
  }
  EXPECT_NE(a, b);
}

TEST(PipelineSmokeTest, FullPaperPipelineOnMicroScale) {
  // Generate -> train -> evaluate -> discover, end to end, one model.
  auto dataset = GenerateSyntheticDataset(Fb15k237Config(600.0, 3));
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ModelConfig mc;
  mc.num_entities = dataset.value().num_entities();
  mc.num_relations = dataset.value().num_relations();
  mc.embedding_dim = 8;
  TrainerConfig tc;
  tc.epochs = 3;
  tc.seed = 1;
  auto model =
      TrainModel(ModelKind::kTransE, mc, dataset.value().train(), tc);
  ASSERT_TRUE(model.ok());
  auto metrics = EvaluateLinkPrediction(*model.value(), dataset.value(),
                                        dataset.value().test());
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics.value().mrr, 0.0);
  DiscoveryOptions o;
  o.top_n = 50;
  o.max_candidates = 50;
  o.strategy = SamplingStrategy::kClusteringTriangles;
  auto discovery = DiscoverFacts(*model.value(), dataset.value().train(), o);
  ASSERT_TRUE(discovery.ok()) << discovery.status().ToString();
  EXPECT_GT(discovery.value().stats.num_candidates, 0u);
}

}  // namespace
}  // namespace kgfd
