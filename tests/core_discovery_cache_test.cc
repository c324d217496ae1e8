#include "core/discovery_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/discovery.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "obs/metrics.h"

namespace kgfd {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "cache";
    c.num_entities = 50;
    c.num_relations = 4;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 31;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 10;
    TrainerConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 5;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

SideScoreCache::EntryPtr MakeEntry(double base, size_t n) {
  auto entry = std::make_shared<SideScoreCache::Entry>();
  entry->scores.resize(n);
  entry->excluded.assign(n, 0);
  for (size_t i = 0; i < n; ++i) entry->scores[i] = base + i;
  return entry;
}

TEST(DiscoveryCacheTest, WeightsComputedOnceAndShared) {
  const Fixture& f = SharedFixture();
  MetricsRegistry metrics;
  DiscoveryCache cache(&metrics);

  auto first = cache.GetOrComputeWeights(SamplingStrategy::kEntityFrequency,
                                         f.dataset.train());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrComputeWeights(SamplingStrategy::kEntityFrequency,
                                          f.dataset.train());
  ASSERT_TRUE(second.ok());
  // Pointer equality: the second call must serve the SAME entry, not an
  // equal recomputation.
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.num_weight_entries(), 1u);
  EXPECT_EQ(cache.weights_hits(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsHitsCounter)->value(), 1u);
  EXPECT_EQ(metrics.GetCounter(kSharedWeightsMissesCounter)->value(), 1u);

  // A different strategy is a distinct entry.
  auto other = cache.GetOrComputeWeights(SamplingStrategy::kUniformRandom,
                                         f.dataset.train());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value().get(), first.value().get());
  EXPECT_EQ(cache.num_weight_entries(), 2u);
}

TEST(DiscoveryCacheTest, FetchPublishRoundTripsEntries) {
  DiscoveryCache cache;
  SideScoreCache producer;
  producer.Insert(/*object_side=*/true, {3, 1}, MakeEntry(10.0, 5));
  producer.Insert(/*object_side=*/true, {4, 1}, MakeEntry(20.0, 5));

  const std::vector<SideScoreCache::Key> keys = {{3, 1}, {4, 1}};
  cache.PublishObjects(keys, /*filtered=*/true, producer);
  EXPECT_EQ(cache.num_score_entries(), 2u);

  SideScoreCache consumer;
  std::vector<SideScoreCache::Key> missing;
  const size_t hits =
      cache.FetchObjects({{3, 1}, {4, 1}, {5, 1}}, /*filtered=*/true,
                         &consumer, &missing);
  EXPECT_EQ(hits, 2u);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].first, 5u);

  const SideScoreCache::Entry* entry = consumer.FindObjects(3, 1);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->scores.size(), 5u);
  EXPECT_DOUBLE_EQ(entry->scores[0], 10.0);
  EXPECT_DOUBLE_EQ(entry->scores[4], 14.0);
  EXPECT_EQ(consumer.FindObjects(5, 1), nullptr);
}

TEST(DiscoveryCacheTest, FetchAndPublishShareEntriesWithoutCopying) {
  // Entries are immutable, so the store keeps the producer's own entry and
  // every consumer is handed that same object: one |E|-sized copy of the
  // scores however many runs rank against it.
  DiscoveryCache cache;
  SideScoreCache producer;
  producer.Insert(/*object_side=*/true, {3, 1}, MakeEntry(10.0, 5));
  producer.Insert(/*object_side=*/false, {4, 1}, MakeEntry(20.0, 5));
  cache.PublishObjects({{3, 1}}, /*filtered=*/true, producer);
  cache.PublishSubjects({{4, 1}}, /*filtered=*/true, producer);
  ASSERT_NE(producer.FindObjects(3, 1), nullptr);
  ASSERT_NE(producer.FindSubjects(1, 4), nullptr);

  SideScoreCache first;
  SideScoreCache second;
  for (SideScoreCache* consumer : {&first, &second}) {
    ASSERT_EQ(cache.FetchObjects({{3, 1}}, true, consumer, nullptr), 1u);
    ASSERT_EQ(cache.FetchSubjects({{4, 1}}, true, consumer, nullptr), 1u);
    EXPECT_EQ(consumer->FindObjects(3, 1), producer.FindObjects(3, 1));
    EXPECT_EQ(consumer->FindSubjects(1, 4), producer.FindSubjects(1, 4));
  }
}

TEST(DiscoveryCacheTest, FilteredProtocolsNeverShareEntries) {
  // The `excluded` mask of an entry depends on the ranking protocol, so a
  // filtered run must never be served an unfiltered entry (or vice versa).
  DiscoveryCache cache;
  SideScoreCache producer;
  producer.Insert(/*object_side=*/true, {3, 1}, MakeEntry(10.0, 5));
  cache.PublishObjects({{3, 1}}, /*filtered=*/true, producer);

  SideScoreCache consumer;
  std::vector<SideScoreCache::Key> missing;
  EXPECT_EQ(cache.FetchObjects({{3, 1}}, /*filtered=*/false, &consumer,
                               &missing),
            0u);
  EXPECT_EQ(missing.size(), 1u);
}

TEST(DiscoveryCacheTest, SidesNeverShareEntries) {
  // (e=3, r=1) object-side and subject-side are different score passes.
  DiscoveryCache cache;
  SideScoreCache producer;
  producer.Insert(/*object_side=*/true, {3, 1}, MakeEntry(10.0, 5));
  cache.PublishObjects({{3, 1}}, /*filtered=*/true, producer);

  SideScoreCache consumer;
  std::vector<SideScoreCache::Key> missing;
  EXPECT_EQ(cache.FetchSubjects({{3, 1}}, /*filtered=*/true, &consumer,
                                &missing),
            0u);
}

TEST(DiscoveryCacheTest, FirstPublishWins) {
  DiscoveryCache cache;
  SideScoreCache first;
  first.Insert(/*object_side=*/true, {3, 1}, MakeEntry(10.0, 3));
  cache.PublishObjects({{3, 1}}, true, first);
  SideScoreCache second;
  second.Insert(/*object_side=*/true, {3, 1}, MakeEntry(99.0, 3));
  cache.PublishObjects({{3, 1}}, true, second);
  EXPECT_EQ(cache.num_score_entries(), 1u);

  SideScoreCache consumer;
  std::vector<SideScoreCache::Key> missing;
  cache.FetchObjects({{3, 1}}, true, &consumer, &missing);
  EXPECT_DOUBLE_EQ(consumer.FindObjects(3, 1)->scores[0], 10.0);
}

TEST(DiscoveryCacheTest, PublishSkipsKeysWithoutLocalEntry) {
  // A cancelled precompute leaves requested keys without entries; publish
  // must skip them rather than store empties.
  DiscoveryCache cache;
  SideScoreCache local;
  cache.PublishObjects({{7, 2}}, true, local);
  EXPECT_EQ(cache.num_score_entries(), 0u);
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].triple, &b[i].triple, sizeof(Triple)) != 0 ||
        std::memcmp(&a[i].rank, &b[i].rank, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(DiscoveryCacheTest, WarmCacheRunIsBitIdenticalToColdRun) {
  // The serving contract: a second job over the same (model, KG) served
  // from a warm cache must produce bit-identical facts — cached scores are
  // copies of the exact doubles a cold run computes.
  const Fixture& f = SharedFixture();
  DiscoveryOptions options;
  options.top_n = 25;
  options.max_candidates = 60;
  options.seed = 77;

  const auto cold = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(cold.ok());

  MetricsRegistry metrics;
  DiscoveryCache cache(&metrics);
  options.metrics = &metrics;
  options.shared_cache = &cache;
  const auto warming = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(warming.ok());
  EXPECT_TRUE(SameFacts(warming.value().facts, cold.value().facts));
  EXPECT_GT(cache.num_score_entries(), 0u);

  const auto warm = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(SameFacts(warm.value().facts, cold.value().facts));
  // The warm run was fully cache-served: every side-score lookup hit.
  EXPECT_GT(cache.scores_hits(), 0u);
  EXPECT_EQ(metrics.GetCounter(kSharedScoresHitsCounter)->value(),
            metrics.GetCounter(kSharedScoresMissesCounter)->value());
}

}  // namespace
}  // namespace kgfd
