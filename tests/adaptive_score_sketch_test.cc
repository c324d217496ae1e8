#include "adaptive/score_sketch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "core/discovery_cache.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "obs/metrics.h"

namespace kgfd {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

std::unique_ptr<Model> TrainFixtureModel(const Dataset& dataset,
                                         uint64_t seed) {
  ModelConfig mc;
  mc.num_entities = dataset.num_entities();
  mc.num_relations = dataset.num_relations();
  mc.embedding_dim = 10;
  TrainerConfig tc;
  tc.epochs = 4;
  tc.batch_size = 64;
  tc.loss = LossKind::kSoftplus;
  tc.seed = seed;
  return std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
      .ValueOrDie("model");
}

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "sketch";
    c.num_entities = 50;
    c.num_relations = 4;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 77;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    auto model = TrainFixtureModel(dataset, 5);
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

bool SameSketch(const ScoreSketch& a, const ScoreSketch& b) {
  if (a.subject_weight.size() != b.subject_weight.size() ||
      a.object_weight.size() != b.object_weight.size()) {
    return false;
  }
  // Bitwise: two builds over the same (model, KG) must agree exactly, not
  // within tolerance — DiscoveryCache serves one build to every consumer.
  return std::memcmp(a.subject_weight.data(), b.subject_weight.data(),
                     a.subject_weight.size() * sizeof(double)) == 0 &&
         std::memcmp(a.object_weight.data(), b.object_weight.data(),
                     a.object_weight.size() * sizeof(double)) == 0;
}

TEST(ScoreSketchTest, RejectsEmptyKgAndDegenerateOptions) {
  const Fixture& f = SharedFixture();
  TripleStore empty(f.dataset.num_entities(), f.dataset.num_relations());
  EXPECT_FALSE(ComputeScoreSketch(*f.model, empty).ok());

  ScoreSketchOptions no_probes;
  no_probes.num_probes = 0;
  EXPECT_FALSE(
      ComputeScoreSketch(*f.model, f.dataset.train(), no_probes).ok());
  ScoreSketchOptions no_topk;
  no_topk.top_k = 0;
  EXPECT_FALSE(
      ComputeScoreSketch(*f.model, f.dataset.train(), no_topk).ok());
}

TEST(ScoreSketchTest, RejectsModelShapeMismatch) {
  const Fixture& f = SharedFixture();
  // A KG claiming more entities than the model has rows must be refused
  // before any kernel runs off the end of the embedding table.
  TripleStore bigger(f.dataset.num_entities() + 10,
                     f.dataset.num_relations());
  bigger.AddAll({{0, 0, 1}}).AbortIfNotOk("store");
  EXPECT_FALSE(ComputeScoreSketch(*f.model, bigger).ok());
}

TEST(ScoreSketchTest, RebuildIsBitIdentical) {
  const Fixture& f = SharedFixture();
  auto first = ComputeScoreSketch(*f.model, f.dataset.train());
  auto second = ComputeScoreSketch(*f.model, f.dataset.train());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(SameSketch(first.value(), second.value()));
  EXPECT_EQ(first.value().num_probes, 64u);
  EXPECT_EQ(first.value().top_k, 32u);
}

TEST(ScoreSketchTest, SketchIsSensitiveToModelParameters) {
  // The fingerprint contract: a different model over the same KG must
  // produce a different sketch, otherwise fingerprint-keyed caching would
  // be meaningless.
  const Fixture& f = SharedFixture();
  auto other_model = TrainFixtureModel(f.dataset, /*seed=*/99);
  auto base = ComputeScoreSketch(*f.model, f.dataset.train());
  auto other = ComputeScoreSketch(*other_model, f.dataset.train());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(SameSketch(base.value(), other.value()));
}

TEST(ScoreSketchTest, WeightsAreNormalizedOverTheFullEntityPool) {
  const Fixture& f = SharedFixture();
  auto weights = ComputeModelScoreWeights(*f.model, f.dataset.train());
  ASSERT_TRUE(weights.ok()) << weights.status().ToString();
  const StrategyWeights& w = weights.value();
  // MODEL_SCORE pools are the full entity range — the sketch may surface
  // any entity the model scores highly, not just ones seen on a side.
  ASSERT_EQ(w.subject_pool.size(), f.dataset.num_entities());
  ASSERT_EQ(w.object_pool.size(), f.dataset.num_entities());
  for (size_t i = 0; i < w.subject_pool.size(); ++i) {
    EXPECT_EQ(w.subject_pool[i], i);
  }
  const double subject_total = std::accumulate(
      w.subject_weights.begin(), w.subject_weights.end(), 0.0);
  const double object_total = std::accumulate(
      w.object_weights.begin(), w.object_weights.end(), 0.0);
  EXPECT_NEAR(subject_total, 1.0, 1e-9);
  EXPECT_NEAR(object_total, 1.0, 1e-9);
  EXPECT_FALSE(w.fell_back_to_uniform);
}

TEST(ScoreSketchTest, AllZeroSketchFallsBackToUniform) {
  ScoreSketch sketch;
  sketch.subject_weight.assign(8, 0.0);
  sketch.object_weight.assign(8, 0.0);
  const StrategyWeights w = ModelScoreWeights(sketch);
  EXPECT_TRUE(w.fell_back_to_uniform);
  for (double v : w.subject_weights) EXPECT_DOUBLE_EQ(v, 1.0 / 8.0);
  for (double v : w.object_weights) EXPECT_DOUBLE_EQ(v, 1.0 / 8.0);
}

TEST(ScoreSketchCacheTest, SecondLookupIsASketchHit) {
  const Fixture& f = SharedFixture();
  MetricsRegistry metrics;
  DiscoveryCache cache(&metrics);

  auto first =
      cache.GetOrComputeWeights(SamplingStrategy::kModelScore,
                                f.dataset.train(), f.model.get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(metrics.GetCounter(kSketchMissesCounter)->value(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSketchHitsCounter)->value(), 0u);

  auto second =
      cache.GetOrComputeWeights(SamplingStrategy::kModelScore,
                                f.dataset.train(), f.model.get());
  ASSERT_TRUE(second.ok());
  // Same entry served, sketch sweep not repeated.
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(metrics.GetCounter(kSketchMissesCounter)->value(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSketchHitsCounter)->value(), 1u);

  // The entry carries ready-to-sample alias tables over the full pool.
  ASSERT_EQ(first.value()->weights.subject_pool.size(),
            f.dataset.num_entities());
}

TEST(ScoreSketchCacheTest, SketchEntryIsDistinctFromFixedStrategyEntries) {
  const Fixture& f = SharedFixture();
  DiscoveryCache cache;
  auto sketch =
      cache.GetOrComputeWeights(SamplingStrategy::kModelScore,
                                f.dataset.train(), f.model.get());
  auto fixed = cache.GetOrComputeWeights(SamplingStrategy::kEntityFrequency,
                                         f.dataset.train());
  ASSERT_TRUE(sketch.ok());
  ASSERT_TRUE(fixed.ok());
  EXPECT_NE(sketch.value().get(), fixed.value().get());
  EXPECT_EQ(cache.num_weight_entries(), 2u);
}

}  // namespace
}  // namespace kgfd
