#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/job.h"
#include "core/resume.h"
#include "kg/synthetic.h"
#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// Graceful-shutdown integration: cancellation (token, deadline, SIGINT or
/// the discovery.cancel failpoint) must stop a sweep at a checkpoint,
/// keep every completed relation's facts bit-identical to an uninterrupted
/// run, persist a loadable resume manifest, and let a later resume finish
/// the job byte-for-byte.
class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    dir_ = ScratchPath("resume");
    std::filesystem::create_directories(dir_);
    manifest_ = dir_ + "/resume.manifest";
    std::filesystem::remove(manifest_);
  }
  void TearDown() override {
    FailPoints::Instance().Reset();
    InstallSignalCancellation(nullptr);
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string manifest_;
};

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "cancel";
    c.num_entities = 50;
    c.num_relations = 6;  // several relations so a mid-sweep stop is real
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

DiscoveryOptions SmallOptions() {
  DiscoveryOptions o;
  o.top_n = 25;
  o.max_candidates = 60;
  o.seed = 77;
  return o;
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // memcmp, not ==: bit-identical or bust.
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

/// Reference facts restricted to the given relations, in sweep order.
std::vector<DiscoveredFact> FactsOfRelations(
    const std::vector<DiscoveredFact>& facts,
    const std::vector<RelationId>& relations) {
  std::vector<DiscoveredFact> out;
  for (const DiscoveredFact& f : facts) {
    for (RelationId r : relations) {
      if (f.triple.relation == r) {
        out.push_back(f);
        break;
      }
    }
  }
  return out;
}

// ------------------------------------------------- plain discovery stops

TEST_F(CancellationTest, PreCancelledTokenYieldsEmptyGracefulResult) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  CancellationToken token;
  token.RequestCancel();
  options.cancel = CancelContext(&token);
  MetricsRegistry registry;
  options.metrics = &registry;

  auto result = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_TRUE(result.value().facts.empty());
  EXPECT_EQ(result.value().stats.num_relations_processed, 0u);
  EXPECT_EQ(result.value().stats.num_relations_skipped,
            f.dataset.train().UsedRelations().size());
  // The stop was observed exactly once and its latency recorded.
  EXPECT_EQ(registry.GetCounter(kCancelRequestedCounter)->value(), 1u);
  EXPECT_EQ(registry.GetHistogram(kCancelObservedSecondsHist)->total_count(),
            1u);
}

TEST_F(CancellationTest, ExpiredDeadlineYieldsGracefulDeadlineResult) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  options.cancel = CancelContext(Deadline::After(0.0));

  auto result = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stopped_reason, StoppedReason::kDeadline);
  EXPECT_TRUE(result.value().facts.empty());
  EXPECT_EQ(result.value().stats.num_relations_skipped,
            f.dataset.train().UsedRelations().size());
}

TEST_F(CancellationTest, GenerousDeadlineChangesNothing) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  options.cancel = CancelContext(Deadline::After(3600.0));
  auto timed = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(timed.ok());
  EXPECT_EQ(timed.value().stopped_reason, StoppedReason::kNone);
  EXPECT_TRUE(SameFacts(timed.value().facts, reference.value().facts));
}

TEST_F(CancellationTest, MidSweepCancelKeepsCompletedRelationsBitIdentical) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions reference_options = SmallOptions();
  auto reference =
      DiscoverFacts(*f.model, f.dataset.train(), reference_options);
  ASSERT_TRUE(reference.ok());
  const std::vector<RelationId> relations =
      f.dataset.train().UsedRelations();
  ASSERT_GT(relations.size(), 2u);

  // Each completed relation consumes 4 discovery.cancel checkpoint
  // evaluations; skipping 8 lets exactly two relations finish on the
  // serial path, then the injected stop lands at the third's boundary.
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryCancel, "8+return(Cancelled)")
                  .ok());
  auto stopped = DiscoverFacts(*f.model, f.dataset.train(),
                               reference_options);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_EQ(stopped.value().stats.num_relations_processed, 2u);
  EXPECT_EQ(stopped.value().stats.num_relations_skipped,
            relations.size() - 2);

  // The partial result is exactly the reference facts of the two
  // completed relations — graceful degradation never rescores anything.
  const std::vector<RelationId> done(relations.begin(),
                                     relations.begin() + 2);
  EXPECT_TRUE(SameFacts(stopped.value().facts,
                        FactsOfRelations(reference.value().facts, done)));
}

TEST_F(CancellationTest, CallbackDrivenTokenCancelStopsNextRelation) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  CancellationToken token;
  options.cancel = CancelContext(&token);
  // Request cancellation from inside the sweep, right after the first
  // relation completes — the Ctrl-C-mid-run shape, made deterministic.
  options.on_relation_complete = [&token](RelationCompletion&&) {
    token.RequestCancel();
  };
  auto reference = DiscoverFacts(*f.model, f.dataset.train(),
                                 SmallOptions());
  ASSERT_TRUE(reference.ok());

  auto stopped = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  ASSERT_EQ(stopped.value().stats.num_relations_processed, 1u);
  const std::vector<RelationId> done = {
      f.dataset.train().UsedRelations().front()};
  EXPECT_TRUE(SameFacts(stopped.value().facts,
                        FactsOfRelations(reference.value().facts, done)));
}

TEST_F(CancellationTest, SigintDuringSweepStopsGracefully) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  CancellationToken token;
  InstallSignalCancellation(&token);
  options.cancel = CancelContext(&token);
  // Deliver a real SIGINT mid-sweep (from the completion callback, so the
  // timing is deterministic); the installed handler flips the token.
  options.on_relation_complete = [](RelationCompletion&&) {
    std::raise(SIGINT);
  };
  auto stopped = DiscoverFacts(*f.model, f.dataset.train(), options);
  InstallSignalCancellation(nullptr);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_EQ(stopped.value().stats.num_relations_processed, 1u);
}

// ------------------------------------------- resumable sweeps + manifests

TEST_F(CancellationTest, CancelMidSweepManifestResumesBitIdentical) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Run 1: injected stop after two relations. Graceful: OK status, partial
  // facts, manifest already flushed with the completed prefix.
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryCancel, "8+return(Cancelled)")
                  .ok());
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto stopped = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_LT(stopped.value().facts.size(), reference.value().facts.size());

  // The manifest on disk is valid and holds exactly the completed work.
  auto mid = LoadResumeManifest(manifest_);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid.value().done.size(), 2u);

  // Run 2: stop cleared; the resumed sweep must match the uninterrupted
  // reference byte for byte.
  FailPoints::Instance().Reset();
  auto resumed = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().stopped_reason, StoppedReason::kNone);
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
  EXPECT_EQ(resumed.value().stats.num_candidates,
            reference.value().stats.num_candidates);
}

TEST_F(CancellationTest, CancelMidSweepResumeUnderThreadPool) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Pooled sweep: the injected stop lands nondeterministically, abandoned
  // relations are all-or-nothing, completed ones are already persisted.
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryCancel, "8+return(Cancelled)")
                  .ok());
  ThreadPool pool(4);
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto stopped = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume, &pool);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kCancelled);
  ASSERT_TRUE(LoadResumeManifest(manifest_).ok());

  FailPoints::Instance().Reset();
  auto resumed = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume, &pool);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
}

TEST_F(CancellationTest, DeadlineStoppedResumableJobFinishesLater) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Run 1 with an already-expired wall-clock budget: nothing runs, but the
  // job still persists a (header-only) manifest and reports the reason.
  options.cancel = CancelContext(Deadline::After(0.0));
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto stopped = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped.value().stopped_reason, StoppedReason::kDeadline);
  EXPECT_TRUE(stopped.value().facts.empty());
  ASSERT_TRUE(LoadResumeManifest(manifest_).ok());

  // Run 2 with the budget lifted completes the whole sweep bit-identically.
  options.cancel = CancelContext();
  auto resumed = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().stopped_reason, StoppedReason::kNone);
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
}

// ------------------------------------------------------- trainer + eval

TEST_F(CancellationTest, TrainerStopsGracefullyWithPartialStats) {
  const Fixture& f = SharedFixture();
  ModelConfig mc;
  mc.num_entities = f.dataset.num_entities();
  mc.num_relations = f.dataset.num_relations();
  mc.embedding_dim = 8;
  Rng rng(13);
  auto model = CreateModel(ModelKind::kDistMult, mc, &rng);
  ASSERT_TRUE(model.ok());

  TrainerConfig tc;
  tc.epochs = 50;
  tc.batch_size = 64;
  tc.loss = LossKind::kSoftplus;
  tc.seed = 9;
  CancellationToken token;
  token.RequestCancel();
  tc.cancel = CancelContext(&token);

  Trainer trainer(model.value().get(), &f.dataset.train(), tc);
  auto stats = trainer.Train();
  // Graceful: OK with the epochs that finished (none — the stop predates
  // the first batch), and the model is still usable for scoring.
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().empty());
  EXPECT_GT(model.value()->NumParameters(), 0u);
  (void)model.value()->Score(Triple{0, 0, 1});
}

TEST_F(CancellationTest, EvaluatorsReturnCancelledError) {
  const Fixture& f = SharedFixture();
  EvalConfig config;
  CancellationToken token;
  token.RequestCancel();
  config.cancel = CancelContext(&token);

  // Serial and pooled link prediction both error out — partial metrics
  // over a prefix of the split would be silently wrong.
  auto serial = EvaluateLinkPrediction(*f.model, f.dataset,
                                       f.dataset.test(), config);
  EXPECT_EQ(serial.status().code(), StatusCode::kCancelled);
  ThreadPool pool(2);
  auto pooled = EvaluateLinkPrediction(*f.model, f.dataset,
                                       f.dataset.test(), config, &pool);
  EXPECT_EQ(pooled.status().code(), StatusCode::kCancelled);

  auto stratified = EvaluateByPopularity(*f.model, f.dataset,
                                         f.dataset.test(), 2, config);
  EXPECT_EQ(stratified.status().code(), StatusCode::kCancelled);
}

TEST_F(CancellationTest, EvaluatorDeadlineMapsToDeadlineExceeded) {
  const Fixture& f = SharedFixture();
  EvalConfig config;
  config.cancel = CancelContext(Deadline::After(0.0));
  auto result = EvaluateLinkPrediction(*f.model, f.dataset,
                                       f.dataset.test(), config);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancellationTest, RunJobStopsBetweenPhases) {
  JobSpec spec;
  spec.dataset_dir = "";
  spec.dataset_scale = 400.0;  // tiny synthetic graph
  spec.trainer.epochs = 1;
  CancellationToken token;
  token.RequestCancel();
  spec.cancel = CancelContext(&token);
  auto result = RunJob(spec);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace kgfd
