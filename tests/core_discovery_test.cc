#include "core/discovery.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_set>

#include <limits>

#include "kg/synthetic.h"
#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

/// One trained model on a small synthetic KG, shared across tests.
const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "disc";
    c.num_entities = 60;
    c.num_relations = 4;
    c.num_train = 600;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 9;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 12;
    TrainerConfig tc;
    tc.epochs = 10;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.optimizer.learning_rate = 0.05;
    tc.seed = 3;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

DiscoveryOptions SmallOptions(SamplingStrategy strategy) {
  DiscoveryOptions o;
  o.top_n = 30;
  o.max_candidates = 100;
  o.strategy = strategy;
  o.seed = 77;
  return o;
}

TEST(DiscoveryMrrTest, EmptyIsZero) { EXPECT_EQ(DiscoveryMrr({}), 0.0); }

TEST(DiscoveryMrrTest, HandComputed) {
  std::vector<DiscoveredFact> facts(2);
  facts[0].rank = 2.0;
  facts[1].rank = 4.0;
  EXPECT_DOUBLE_EQ(DiscoveryMrr(facts), (0.5 + 0.25) / 2.0);
}

TEST(DiscoverFactsTest, RejectsBadOptions) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.top_n = 0;
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
  o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.max_candidates = 0;
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
  o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.max_iterations = 0;
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
  o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.relations = {99};
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
}

TEST(DiscoverFactsTest, ValidateDiscoveryOptionsMatchesDiscoverFacts) {
  // The standalone validator (used by the resumable and serving entry
  // points) must agree with DiscoverFacts on what is rejectable.
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kUniformRandom);
  EXPECT_TRUE(ValidateDiscoveryOptions(o, f.dataset.train()).ok());
  o.max_candidates = 0;
  EXPECT_EQ(ValidateDiscoveryOptions(o, f.dataset.train()).code(),
            StatusCode::kInvalidArgument);
  o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.relations = {99};
  EXPECT_EQ(ValidateDiscoveryOptions(o, f.dataset.train()).code(),
            StatusCode::kOutOfRange);
}

TEST(DiscoverFactsTest, TinyMaxCandidatesNeverOvershootsBudget) {
  // Regression: sample_size = sqrt(max_candidates) + 10 makes the
  // mesh-grid much larger than tiny budgets (max_candidates = 1 generates
  // up to 11x11 pairs); the per-relation candidate set must still honor
  // the cap exactly.
  const Fixture& f = SharedFixture();
  for (const size_t budget : {size_t{1}, size_t{2}, size_t{5}}) {
    DiscoveryOptions o = SmallOptions(SamplingStrategy::kUniformRandom);
    o.max_candidates = budget;
    o.top_n = 1000;  // rank filter wide open: the cap must do the limiting
    const auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const size_t num_relations = f.dataset.train().UsedRelations().size();
    EXPECT_LE(result.value().facts.size(), budget * num_relations);
    EXPECT_LE(result.value().stats.num_candidates, budget * num_relations);
  }
}

TEST(DiscoverFactsTest, CandidateMemoryCapRejectsOversizedSweep) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kUniformRandom);
  // A huge max_candidates would silently demand sample_size^2 mesh-grid
  // memory; the cap must refuse it up front with an actionable message
  // instead of attempting the allocation.
  o.max_candidates = size_t{1} << 40;
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("max_candidate_memory_bytes"),
            std::string::npos);

  // Raising the cap (or shrinking the sweep) clears the error.
  o = SmallOptions(SamplingStrategy::kUniformRandom);
  o.max_candidate_memory_bytes = 1;  // everything is over a 1-byte cap
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
  o.max_candidate_memory_bytes = size_t{1} << 30;
  EXPECT_TRUE(DiscoverFacts(*f.model, f.dataset.train(), o).ok());
}

TEST(DiscoverFactsTest, RejectsMismatchedModel) {
  const Fixture& f = SharedFixture();
  TripleStore other(5, 1);
  ASSERT_TRUE(other.Add({0, 0, 1}).ok());
  EXPECT_FALSE(
      DiscoverFacts(*f.model, other,
                    SmallOptions(SamplingStrategy::kUniformRandom))
          .ok());
}

TEST(DiscoverFactsTest, AcceptsModelWithExtraRelations) {
  // The shared shape contract (ValidateModelShape): entity vocabularies
  // must match exactly, but a model trained on a superset relation
  // vocabulary may score a sub-KG slice.
  const Fixture& f = SharedFixture();
  ModelConfig mc;
  mc.num_entities = f.dataset.num_entities();
  mc.num_relations = f.dataset.num_relations() + 3;
  mc.embedding_dim = 8;
  Rng rng(5);
  auto model = CreateModel(ModelKind::kDistMult, mc, &rng);
  ASSERT_TRUE(model.ok());
  auto result =
      DiscoverFacts(*model.value(), f.dataset.train(),
                    SmallOptions(SamplingStrategy::kUniformRandom));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

/// Contract sweep over all six strategies.
class DiscoveryContractTest
    : public ::testing::TestWithParam<SamplingStrategy> {};

TEST_P(DiscoveryContractTest, FactsAreNeverKnownTriples) {
  const Fixture& f = SharedFixture();
  auto result =
      DiscoverFacts(*f.model, f.dataset.train(), SmallOptions(GetParam()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const DiscoveredFact& fact : result.value().facts) {
    EXPECT_FALSE(f.dataset.train().Contains(fact.triple));
  }
}

TEST_P(DiscoveryContractTest, RanksRespectTopN) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions o = SmallOptions(GetParam());
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  for (const DiscoveredFact& fact : result.value().facts) {
    EXPECT_LE(fact.rank, static_cast<double>(o.top_n));
    EXPECT_GE(fact.rank, 1.0);
    EXPECT_DOUBLE_EQ(fact.rank,
                     0.5 * (fact.subject_rank + fact.object_rank));
  }
}

TEST_P(DiscoveryContractTest, CandidateBudgetRespected) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions o = SmallOptions(GetParam());
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  const size_t num_relations = f.dataset.train().UsedRelations().size();
  EXPECT_LE(result.value().stats.num_candidates,
            o.max_candidates * num_relations);
  EXPECT_LE(result.value().facts.size(),
            result.value().stats.num_candidates);
  EXPECT_EQ(result.value().stats.num_relations_processed, num_relations);
}

TEST_P(DiscoveryContractTest, DeterministicUnderSeed) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions o = SmallOptions(GetParam());
  auto a = DiscoverFacts(*f.model, f.dataset.train(), o);
  auto b = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().facts.size(), b.value().facts.size());
  for (size_t i = 0; i < a.value().facts.size(); ++i) {
    EXPECT_EQ(a.value().facts[i].triple, b.value().facts[i].triple);
    EXPECT_EQ(a.value().facts[i].rank, b.value().facts[i].rank);
  }
}

TEST_P(DiscoveryContractTest, NoDuplicateFactsWithinRelation) {
  const Fixture& f = SharedFixture();
  auto result =
      DiscoverFacts(*f.model, f.dataset.train(), SmallOptions(GetParam()));
  ASSERT_TRUE(result.ok());
  std::set<std::tuple<EntityId, RelationId, EntityId>> seen;
  for (const DiscoveredFact& fact : result.value().facts) {
    EXPECT_TRUE(seen.insert({fact.triple.subject, fact.triple.relation,
                             fact.triple.object})
                    .second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DiscoveryContractTest,
    ::testing::Values(SamplingStrategy::kUniformRandom,
                      SamplingStrategy::kEntityFrequency,
                      SamplingStrategy::kGraphDegree,
                      SamplingStrategy::kClusteringCoefficient,
                      SamplingStrategy::kClusteringTriangles,
                      SamplingStrategy::kClusteringSquares,
                      SamplingStrategy::kModelScore),
    [](const ::testing::TestParamInfo<SamplingStrategy>& info) {
      return SamplingStrategyName(info.param);
    });

TEST(DiscoverFactsTest, RelationSubsetHonored) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  o.relations = {1};
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.num_relations_processed, 1u);
  for (const DiscoveredFact& fact : result.value().facts) {
    EXPECT_EQ(fact.triple.relation, 1u);
  }
}

TEST(DiscoverFactsTest, HigherTopNNeverYieldsFewerFacts) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions lo = SmallOptions(SamplingStrategy::kGraphDegree);
  lo.top_n = 5;
  DiscoveryOptions hi = lo;
  hi.top_n = 60;
  auto few = DiscoverFacts(*f.model, f.dataset.train(), lo);
  auto many = DiscoverFacts(*f.model, f.dataset.train(), hi);
  ASSERT_TRUE(few.ok() && many.ok());
  EXPECT_GE(many.value().facts.size(), few.value().facts.size());
}

TEST(DiscoverFactsTest, HigherTopNLowersMrr) {
  // The paper's Fig. 8(b): admitting worse-ranked facts dilutes MRR.
  const Fixture& f = SharedFixture();
  DiscoveryOptions lo = SmallOptions(SamplingStrategy::kGraphDegree);
  lo.top_n = 5;
  DiscoveryOptions hi = lo;
  hi.top_n = 60;
  auto strict = DiscoverFacts(*f.model, f.dataset.train(), lo);
  auto loose = DiscoverFacts(*f.model, f.dataset.train(), hi);
  ASSERT_TRUE(strict.ok() && loose.ok());
  if (!strict.value().facts.empty() && !loose.value().facts.empty()) {
    EXPECT_GE(DiscoveryMrr(strict.value().facts),
              DiscoveryMrr(loose.value().facts));
  }
}

TEST(DiscoverFactsTest, CachedWeightsMatchFaithfulFacts) {
  // Weight caching is a pure performance ablation: with the same seed the
  // sampled candidates — and hence the discovered facts — are identical.
  const Fixture& f = SharedFixture();
  DiscoveryOptions faithful = SmallOptions(SamplingStrategy::kGraphDegree);
  DiscoveryOptions cached = faithful;
  cached.cache_weights = true;
  auto a = DiscoverFacts(*f.model, f.dataset.train(), faithful);
  auto b = DiscoverFacts(*f.model, f.dataset.train(), cached);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().facts.size(), b.value().facts.size());
  for (size_t i = 0; i < a.value().facts.size(); ++i) {
    EXPECT_EQ(a.value().facts[i].triple, b.value().facts[i].triple);
  }
  EXPECT_LE(b.value().stats.weight_seconds,
            a.value().stats.weight_seconds + 1e-9);
}

TEST(DiscoverFactsTest, StatsAreInternallyConsistent) {
  const Fixture& f = SharedFixture();
  auto result = DiscoverFacts(*f.model, f.dataset.train(),
                              SmallOptions(SamplingStrategy::kUniformRandom));
  ASSERT_TRUE(result.ok());
  const DiscoveryStats& s = result.value().stats;
  EXPECT_EQ(s.num_facts, result.value().facts.size());
  EXPECT_GE(s.total_seconds, 0.0);
  // The three phases are disjoint, so their sum never exceeds wall time
  // on a serial run.
  EXPECT_LE(s.weight_seconds + s.generation_seconds + s.evaluation_seconds,
            s.total_seconds + 0.05);
  if (s.total_seconds > 0.0 && s.num_facts > 0) {
    EXPECT_GT(s.FactsPerHour(), 0.0);
  }
}

TEST(DiscoverFactsTest, CachedWeightsNotDoubleCountedAsGeneration) {
  // Regression: generation_seconds used to be seeded with the hoisted
  // weight time, counting it in two phases at once.
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kClusteringTriangles);
  o.cache_weights = true;
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  const DiscoveryStats& s = result.value().stats;
  EXPECT_GT(s.weight_seconds, 0.0);
  EXPECT_LE(s.weight_seconds + s.generation_seconds + s.evaluation_seconds,
            s.total_seconds + 0.05);
}

TEST(DiscoverFactsTest, RankAggregationModes) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  o.rank_aggregation = RankAggregation::kMin;
  auto min_result = DiscoverFacts(*f.model, f.dataset.train(), o);
  o.rank_aggregation = RankAggregation::kMax;
  auto max_result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(min_result.ok() && max_result.ok());
  // kMin admits everything kMax admits (same candidates, laxer filter).
  EXPECT_GE(min_result.value().facts.size(),
            max_result.value().facts.size());
  for (const DiscoveredFact& fact : min_result.value().facts) {
    EXPECT_DOUBLE_EQ(
        fact.rank, std::min(fact.subject_rank, fact.object_rank));
  }
}

TEST(DiscoverFactsTest, ParallelMatchesSerialExactly) {
  // Each relation has its own RNG stream, so a thread pool must not change
  // the discovered facts in any way.
  const Fixture& f = SharedFixture();
  const DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  auto serial = DiscoverFacts(*f.model, f.dataset.train(), o);
  ThreadPool pool(4);
  auto parallel = DiscoverFacts(*f.model, f.dataset.train(), o, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial.value().facts.size(), parallel.value().facts.size());
  for (size_t i = 0; i < serial.value().facts.size(); ++i) {
    EXPECT_EQ(serial.value().facts[i].triple,
              parallel.value().facts[i].triple);
    EXPECT_EQ(serial.value().facts[i].rank, parallel.value().facts[i].rank);
  }
  EXPECT_EQ(serial.value().stats.num_candidates,
            parallel.value().stats.num_candidates);
}

TEST(DiscoverFactsTest, BitIdenticalAcrossThreadCounts) {
  // The inner ranking loop fans out over candidates; fixed per-candidate
  // slots plus per-relation RNG streams must keep the full result —
  // triples, all three ranks, and the candidate count — bit-identical for
  // every thread count, including the serial path.
  const Fixture& f = SharedFixture();
  const DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), o, nullptr);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    auto result = DiscoverFacts(*f.model, f.dataset.train(), o, &pool);
    ASSERT_TRUE(result.ok()) << threads << " threads";
    ASSERT_EQ(result.value().facts.size(), reference.value().facts.size())
        << threads << " threads";
    for (size_t i = 0; i < reference.value().facts.size(); ++i) {
      const DiscoveredFact& want = reference.value().facts[i];
      const DiscoveredFact& got = result.value().facts[i];
      EXPECT_EQ(got.triple, want.triple) << threads << " threads";
      EXPECT_EQ(got.rank, want.rank) << threads << " threads";
      EXPECT_EQ(got.subject_rank, want.subject_rank) << threads << " threads";
      EXPECT_EQ(got.object_rank, want.object_rank) << threads << " threads";
    }
    EXPECT_EQ(result.value().stats.num_candidates,
              reference.value().stats.num_candidates);
  }
}

TEST(DiscoverFactsTest, SingleHotRelationUsesInnerParallelism) {
  // A one-relation job must still produce identical output under a pool
  // (the outer loop is a single slot; only the inner ranking fans out).
  const Fixture& f = SharedFixture();
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kGraphDegree);
  o.relations = {2};
  auto serial = DiscoverFacts(*f.model, f.dataset.train(), o, nullptr);
  ThreadPool pool(8);
  auto parallel = DiscoverFacts(*f.model, f.dataset.train(), o, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial.value().facts.size(), parallel.value().facts.size());
  for (size_t i = 0; i < serial.value().facts.size(); ++i) {
    EXPECT_EQ(serial.value().facts[i].triple,
              parallel.value().facts[i].triple);
    EXPECT_EQ(serial.value().facts[i].rank, parallel.value().facts[i].rank);
  }
}

TEST(DiscoverFactsTest, FactsOrderedByRelationSlot) {
  // Outcomes merge in relation order regardless of scheduling.
  const Fixture& f = SharedFixture();
  auto result = DiscoverFacts(*f.model, f.dataset.train(),
                              SmallOptions(SamplingStrategy::kGraphDegree));
  ASSERT_TRUE(result.ok());
  const std::vector<RelationId> used = f.dataset.train().UsedRelations();
  size_t last_pos = 0;
  for (RelationId r : used) {
    for (size_t i = last_pos; i < result.value().facts.size(); ++i) {
      if (result.value().facts[i].triple.relation == r) last_pos = i;
    }
  }
  // All facts of one relation must be contiguous.
  std::set<RelationId> closed;
  RelationId current = std::numeric_limits<RelationId>::max();
  for (const DiscoveredFact& fact : result.value().facts) {
    if (fact.triple.relation != current) {
      EXPECT_TRUE(closed.insert(fact.triple.relation).second)
          << "relation block split";
      current = fact.triple.relation;
    }
  }
}

TEST(DiscoverFactsTest, PopulatesMetricsRegistry) {
  const Fixture& f = SharedFixture();
  MetricsRegistry registry;
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  o.metrics = &registry;
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  const DiscoveryStats& stats = result.value().stats;
  const MetricsSnapshot snapshot = registry.Snapshot();

  // Counters line up with the returned stats.
  ASSERT_EQ(snapshot.counters.count(kDiscoveryCandidatesCounter), 1u);
  EXPECT_EQ(snapshot.counters.at(kDiscoveryCandidatesCounter),
            stats.num_candidates);
  EXPECT_EQ(snapshot.counters.at(kDiscoveryFactsCounter), stats.num_facts);
  EXPECT_EQ(snapshot.counters.at(kDiscoveryRelationsCounter),
            stats.num_relations_processed);
  // Every candidate performs exactly one object-side and one subject-side
  // score-cache lookup, each a hit or a miss.
  EXPECT_EQ(snapshot.counters.at(kDiscoveryScoreCacheHits) +
                snapshot.counters.at(kDiscoveryScoreCacheMisses),
            2 * stats.num_candidates);
  EXPECT_GT(snapshot.counters.at(kDiscoveryScoreCacheMisses), 0u);

  // One span per relation per phase, and the histogram totals equal the
  // phase timings (same measured values, so no double counting).
  for (const char* span : {kDiscoveryWeightsSpan, kDiscoveryGenerationSpan,
                           kDiscoveryRankingSpan}) {
    ASSERT_EQ(snapshot.histograms.count(span), 1u) << span;
    EXPECT_EQ(snapshot.histograms.at(span).total,
              stats.num_relations_processed)
        << span;
  }
  EXPECT_NEAR(snapshot.histograms.at(kDiscoveryWeightsSpan).sum,
              stats.weight_seconds, 1e-9);
  EXPECT_NEAR(snapshot.histograms.at(kDiscoveryGenerationSpan).sum,
              stats.generation_seconds, 1e-9);
  EXPECT_NEAR(snapshot.histograms.at(kDiscoveryRankingSpan).sum,
              stats.evaluation_seconds, 1e-9);
}

TEST(DiscoverFactsTest, CachedWeightsRecordOneWeightSpan) {
  const Fixture& f = SharedFixture();
  MetricsRegistry registry;
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  o.cache_weights = true;
  o.metrics = &registry;
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o);
  ASSERT_TRUE(result.ok());
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at(kDiscoveryWeightsSpan).total, 1u);
  EXPECT_NEAR(snapshot.histograms.at(kDiscoveryWeightsSpan).sum,
              result.value().stats.weight_seconds, 1e-9);
}

TEST(DiscoverFactsTest, MetricsMatchUnderThreadPool) {
  // Worker threads feed the same registry; totals must still line up.
  const Fixture& f = SharedFixture();
  MetricsRegistry registry;
  DiscoveryOptions o = SmallOptions(SamplingStrategy::kEntityFrequency);
  o.metrics = &registry;
  ThreadPool pool(4);
  pool.AttachMetrics(&registry);
  auto result = DiscoverFacts(*f.model, f.dataset.train(), o, &pool);
  ASSERT_TRUE(result.ok());
  const DiscoveryStats& stats = result.value().stats;
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at(kDiscoveryCandidatesCounter),
            stats.num_candidates);
  EXPECT_EQ(snapshot.counters.at(kDiscoveryFactsCounter), stats.num_facts);
  EXPECT_EQ(snapshot.histograms.at(kDiscoveryRankingSpan).total,
            stats.num_relations_processed);
  EXPECT_EQ(snapshot.counters.at(kThreadPoolTasksSubmitted),
            snapshot.counters.at(kThreadPoolTasksCompleted));
}

TEST(DiscoverFactsTest, UnfilteredRankingIsHarsherOrEqual) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions filtered = SmallOptions(SamplingStrategy::kGraphDegree);
  DiscoveryOptions raw = filtered;
  raw.filtered_ranking = false;
  auto fr = DiscoverFacts(*f.model, f.dataset.train(), filtered);
  auto rr = DiscoverFacts(*f.model, f.dataset.train(), raw);
  ASSERT_TRUE(fr.ok() && rr.ok());
  // Same candidates (same seed); raw ranking can only add competitors.
  EXPECT_GE(fr.value().facts.size(), rr.value().facts.size());
}

/// Scores that tie in pairs of objects (2m, 2m + 1) and in triples of
/// subjects (3m .. 3m + 2), so candidates sharing a side entry have tied
/// targets.
class TiedScoreModel : public Model {
 public:
  TiedScoreModel(size_t entities, size_t relations)
      : entities_(entities), relations_(relations), dummy_(1, 1) {}

  ModelKind kind() const override { return ModelKind::kDistMult; }
  size_t num_entities() const override { return entities_; }
  size_t num_relations() const override { return relations_; }
  size_t embedding_dim() const override { return 1; }

  double Score(const Triple& t) const override {
    return static_cast<double>(t.object / 2) +
           static_cast<double>(t.subject / 3);
  }
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override {
    for (size_t q = 0; q < num_queries; ++q) {
      const auto [s, r] = queries[q];
      outs[q]->resize(entities_);
      for (EntityId o = 0; o < entities_; ++o) {
        (*outs[q])[o] = Score({s, r, o});
      }
    }
  }
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override {
    for (size_t q = 0; q < num_queries; ++q) {
      const auto [o, r] = queries[q];
      outs[q]->resize(entities_);
      for (EntityId s = 0; s < entities_; ++s) {
        (*outs[q])[s] = Score({s, r, o});
      }
    }
  }
  void AccumulateScoreGradient(const Triple&, double,
                               GradientBatch*) override {}
  std::vector<NamedTensor> Parameters() override {
    return {{"dummy", &dummy_}};
  }
  void InitParameters(Rng*) override {}

 private:
  size_t entities_;
  size_t relations_;
  Tensor dummy_;
};

TEST(DiscoverFactsTest, TiedTargetsOfOneEntryRankLikeTheReference) {
  constexpr size_t kEntities = 24;
  TripleStore kg(kEntities, 1);
  for (EntityId e = 0; e < kEntities; ++e) {
    ASSERT_TRUE(
        kg.Add({e, 0, static_cast<EntityId>((e * 7 + 3) % kEntities)}).ok());
  }
  TiedScoreModel model(kEntities, 1);
  DiscoveryOptions o;
  o.strategy = SamplingStrategy::kUniformRandom;
  o.max_candidates = 200;
  o.top_n = 1000;  // every candidate becomes a fact
  o.seed = 5;
  auto serial = DiscoverFacts(model, kg, o);
  ThreadPool pool(4);
  auto parallel = DiscoverFacts(model, kg, o, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  const std::vector<DiscoveredFact>& facts = serial.value().facts;
  ASSERT_EQ(facts.size(), serial.value().stats.num_candidates);
  ASSERT_EQ(facts.size(), parallel.value().facts.size());

  size_t tied_pairs = 0;
  std::vector<double> scores;
  std::vector<char> excluded;
  for (size_t i = 0; i < facts.size(); ++i) {
    const Triple& t = facts[i].triple;
    model.ScoreObjects(t.subject, 0, &scores);
    excluded.assign(kEntities, 0);
    for (EntityId other : kg.ObjectsOf(t.subject, 0)) excluded[other] = 1;
    EXPECT_EQ(facts[i].object_rank,
              RankAgainstScores(scores, t.object, &excluded));
    model.ScoreSubjects(0, t.object, &scores);
    excluded.assign(kEntities, 0);
    for (EntityId other : kg.SubjectsOf(0, t.object)) excluded[other] = 1;
    EXPECT_EQ(facts[i].subject_rank,
              RankAgainstScores(scores, t.subject, &excluded));
    EXPECT_EQ(facts[i].triple, parallel.value().facts[i].triple);
    EXPECT_EQ(facts[i].rank, parallel.value().facts[i].rank);
    for (size_t j = i + 1; j < facts.size(); ++j) {
      const Triple& u = facts[j].triple;
      if (u.subject == t.subject && u.object / 2 == t.object / 2) {
        ++tied_pairs;
      }
    }
  }
  // The case is only meaningful if some (s, r) entry ranked two candidates
  // with tied targets.
  EXPECT_GT(tied_pairs, 0u);
}

}  // namespace
}  // namespace kgfd
