#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/scheduler.h"
#include "core/discovery.h"
#include "core/resume.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// End-to-end checks of strategy=ADAPTIVE and strategy=MODEL_SCORE through
/// DiscoverFacts / DiscoverFactsResumable: bit-identity across thread
/// counts, bit-identity through a mid-relation kill + resume (round-level
/// checkpoints), and the adaptive metric series.
struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "adaptive";
    c.num_entities = 50;
    c.num_relations = 6;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 41;
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
    tc.seed = 9;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

DiscoveryOptions AdaptiveOptions() {
  DiscoveryOptions o;
  o.strategy = SamplingStrategy::kAdaptive;
  o.top_n = 25;
  o.max_candidates = 60;
  o.adaptive_rounds = 4;
  o.seed = 99;
  return o;
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison so the test cannot pass through FP tolerance.
    if (std::memcmp(&a[i].triple, &b[i].triple, sizeof(Triple)) != 0 ||
        std::memcmp(&a[i].rank, &b[i].rank, sizeof(double)) != 0 ||
        std::memcmp(&a[i].subject_rank, &b[i].subject_rank,
                    sizeof(double)) != 0 ||
        std::memcmp(&a[i].object_rank, &b[i].object_rank,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class AdaptiveResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    dir_ = ScratchPath("resume");
    std::filesystem::create_directories(dir_);
    manifest_ = dir_ + "/resume.manifest";
  }
  void TearDown() override {
    FailPoints::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string manifest_;
};

// ------------------------------------------------------ options plumbing

TEST(AdaptiveOptionsTest, ValidatesAdaptiveKnobs) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = AdaptiveOptions();
  options.adaptive_rounds = 0;
  EXPECT_FALSE(
      ValidateDiscoveryOptions(options, f.dataset.train()).ok());

  options = AdaptiveOptions();
  options.adaptive_exploration = -1.0;
  EXPECT_FALSE(
      ValidateDiscoveryOptions(options, f.dataset.train()).ok());
  // NaN must be rejected too, not slide through a < comparison.
  options.adaptive_exploration = std::nan("");
  EXPECT_FALSE(
      ValidateDiscoveryOptions(options, f.dataset.train()).ok());

  EXPECT_TRUE(
      ValidateDiscoveryOptions(AdaptiveOptions(), f.dataset.train()).ok());
}

// ----------------------------------------------------- thread identity

TEST(AdaptiveDiscoveryTest, BitIdenticalAcrossThreadCounts) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = AdaptiveOptions();
  auto serial = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_FALSE(serial.value().facts.empty());

  // The issue's acceptance matrix: {1, 4, 16} worker threads, all
  // bit-identical to the serial run.
  for (size_t threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    auto pooled = DiscoverFacts(*f.model, f.dataset.train(), options, &pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_TRUE(SameFacts(pooled.value().facts, serial.value().facts))
        << "threads=" << threads;
    EXPECT_EQ(pooled.value().stats.num_candidates,
              serial.value().stats.num_candidates)
        << "threads=" << threads;
  }
}

TEST(AdaptiveDiscoveryTest, SeedChangesTheSweep) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = AdaptiveOptions();
  auto a = DiscoverFacts(*f.model, f.dataset.train(), options);
  options.seed = 1234567;
  auto b = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(SameFacts(a.value().facts, b.value().facts));
}

TEST(AdaptiveDiscoveryTest, ModelScoreStrategyRunsEndToEnd) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = AdaptiveOptions();
  options.strategy = SamplingStrategy::kModelScore;
  auto serial = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_FALSE(serial.value().facts.empty());

  ThreadPool pool(4);
  auto pooled = DiscoverFacts(*f.model, f.dataset.train(), options, &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_TRUE(SameFacts(pooled.value().facts, serial.value().facts));
}

// The paper's Fig 6 efficiency measure, facts per candidate, on a KG large
// enough for the comparison to mean something: 3000 entities, 8 relations,
// a moderately closed Zipf graph and a DistMult model trained for 6 epochs.
// The model knows where its own score mass is better than a frequency prior
// does, so MODEL_SCORE must accept at least as many facts per candidate as
// ENTITY_FREQUENCY. The ratio is deterministic under the seeds.
TEST(AdaptiveDiscoveryTest, ModelScoreBeatsEntityFrequencyPerCandidate) {
  SyntheticConfig c;
  c.name = "fig6";
  c.num_entities = 3000;
  c.num_relations = 8;
  c.num_train = c.num_entities * 8;
  c.num_valid = 50;
  c.num_test = 50;
  c.closure_probability = 0.2;
  c.entity_zipf_exponent = 0.9;
  c.seed = 7;
  auto dataset = std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
  ModelConfig mc;
  mc.num_entities = dataset.num_entities();
  mc.num_relations = dataset.num_relations();
  mc.embedding_dim = 16;
  TrainerConfig tc;
  tc.epochs = 6;
  tc.batch_size = 256;
  tc.seed = 11;
  auto model =
      std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
          .ValueOrDie("model");

  auto facts_per_candidate = [&](SamplingStrategy strategy) {
    DiscoveryOptions options;
    options.strategy = strategy;
    options.top_n = 600;
    options.max_candidates = 1500;
    options.seed = 99;
    const DiscoveryResult result =
        std::move(DiscoverFacts(*model, dataset.train(), options))
            .ValueOrDie("discovery");
    EXPECT_GT(result.stats.num_candidates, 0u);
    return static_cast<double>(result.facts.size()) /
           static_cast<double>(result.stats.num_candidates);
  };
  const double model_score = facts_per_candidate(SamplingStrategy::kModelScore);
  const double entity_frequency =
      facts_per_candidate(SamplingStrategy::kEntityFrequency);
  EXPECT_GE(model_score / entity_frequency, 1.0)
      << "MODEL_SCORE " << model_score << " vs ENTITY_FREQUENCY "
      << entity_frequency << " facts/candidate";
}

// ------------------------------------------------------------- metrics

TEST(AdaptiveDiscoveryTest, RecordsAdaptiveMetricSeries) {
  const Fixture& f = SharedFixture();
  MetricsRegistry metrics;
  DiscoveryOptions options = AdaptiveOptions();
  options.metrics = &metrics;
  auto result = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(result.ok());

  const size_t relations = f.dataset.train().UsedRelations().size();
  // Budget >= rounds, so every relation plays exactly adaptive_rounds
  // rounds, and the granted quotas sum to max_candidates per relation.
  EXPECT_EQ(metrics.GetCounter(kAdaptiveRoundsCounter)->value(),
            relations * options.adaptive_rounds);
  uint64_t budget_total = 0;
  uint64_t reward_total = 0;
  for (SamplingStrategy arm : AdaptiveArmStrategies()) {
    const std::string name = SamplingStrategyName(arm);
    budget_total +=
        metrics.GetCounter(kAdaptiveBudgetPrefix + name)->value();
    reward_total +=
        metrics.GetHistogram(kAdaptiveRewardPrefix + name)->total_count();
  }
  EXPECT_EQ(budget_total, relations * options.max_candidates);
  EXPECT_EQ(reward_total, relations * options.adaptive_rounds);
}

// ------------------------------------------------------- kill + resume

TEST_F(AdaptiveResumeTest, UninterruptedResumableMatchesPlainAdaptive) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = AdaptiveOptions();
  auto plain = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(plain.ok());

  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto resumable =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(resumable.ok()) << resumable.status().ToString();
  EXPECT_TRUE(SameFacts(resumable.value().facts, plain.value().facts));
}

TEST_F(AdaptiveResumeTest, KillBetweenRoundsThenResumeIsBitIdentical) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = AdaptiveOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Kill the run at its 8th cancellation checkpoint. With 4 rounds and 3
  // checkpoints per round (round boundary, post-generation, pre-ranking)
  // plus the relation-boundary one, the stop lands *between rounds* of the
  // first relation — the round-level checkpoint unit this PR adds.
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(
      fp.Enable(kFailPointDiscoveryCancel, "8+return(Cancelled)").ok());
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto stopped =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_LT(stopped.value().facts.size(), reference.value().facts.size());

  // The manifest must hold partial (round-level) adaptive progress: no
  // relation finished, yet completed rounds survived the kill.
  auto mid = LoadResumeManifest(manifest_);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_FALSE(mid.value().partial.empty());
  size_t persisted_rounds = 0;
  for (const auto& partial : mid.value().partial) {
    EXPECT_LT(partial.rounds.size(), options.adaptive_rounds);
    persisted_rounds += partial.rounds.size();
  }
  EXPECT_GT(persisted_rounds, 0u);

  // Resume with the fault cleared: bit-identical to the uninterrupted run.
  fp.Reset();
  auto resumed =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
  EXPECT_EQ(resumed.value().stats.num_candidates,
            reference.value().stats.num_candidates);

  // The finished manifest carries no partial residue.
  auto done = LoadResumeManifest(manifest_);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().partial.empty());
}

TEST_F(AdaptiveResumeTest, RepeatedKillsEventuallyFinishBitIdentical) {
  // Chaos-style: kill at an advancing checkpoint index until the sweep
  // completes; every intermediate manifest must stay loadable and the
  // final fact set bit-identical to the uninterrupted reference.
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = AdaptiveOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  ResumeOptions resume;
  resume.manifest_path = manifest_;
  FailPoints& fp = FailPoints::Instance();
  Result<DiscoveryResult> last = Status::Internal("never ran");
  for (int attempt = 0; attempt < 60; ++attempt) {
    fp.Reset();
    const std::string spec =
        std::to_string(5 + 9 * attempt) + "+return(Cancelled)";
    ASSERT_TRUE(fp.Enable(kFailPointDiscoveryCancel, spec).ok());
    last = DiscoverFactsResumable(*f.model, f.dataset.train(), options,
                                  resume);
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    ASSERT_TRUE(LoadResumeManifest(manifest_).ok());
    if (last.value().stopped_reason == StoppedReason::kNone) break;
  }
  fp.Reset();
  ASSERT_EQ(last.value().stopped_reason, StoppedReason::kNone)
      << "sweep never completed within the attempt budget";
  EXPECT_TRUE(SameFacts(last.value().facts, reference.value().facts));
}

TEST_F(AdaptiveResumeTest, ResumeRejectsChangedAdaptiveKnobs) {
  // adaptive_rounds / adaptive_exploration are part of the manifest
  // fingerprint: resuming under different bandit parameters would splice
  // two different schedules into one output.
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = AdaptiveOptions();
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(
      fp.Enable(kFailPointDiscoveryCancel, "8+return(Cancelled)").ok());
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  ASSERT_TRUE(
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume)
          .ok());
  fp.Reset();

  options.adaptive_rounds = 5;
  EXPECT_FALSE(
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume)
          .ok());
  options = AdaptiveOptions();
  options.adaptive_exploration = 0.75;
  EXPECT_FALSE(
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume)
          .ok());
}

}  // namespace
}  // namespace kgfd
