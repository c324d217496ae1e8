#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "core/job.h"
#include "core/resume.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// The fail-point registry is process-global; every test starts and ends
/// from a clean slate so armed sites cannot leak across tests.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().Reset(); }
  void TearDown() override { FailPoints::Instance().Reset(); }

  ScratchDir scratch_;
};

// ------------------------------------------------------------ spec parsing

TEST_F(FailPointTest, ParsesPlainActions) {
  auto off = FailPointSpec::Parse("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value().action, FailPointSpec::Action::kOff);

  auto ret = FailPointSpec::Parse("return");
  ASSERT_TRUE(ret.ok());
  EXPECT_EQ(ret.value().action, FailPointSpec::Action::kReturnError);
  EXPECT_EQ(ret.value().code, StatusCode::kIoError);

  auto delay = FailPointSpec::Parse("delay(25)");
  ASSERT_TRUE(delay.ok());
  EXPECT_EQ(delay.value().action, FailPointSpec::Action::kDelay);
  EXPECT_EQ(delay.value().delay_ms, 25u);
}

TEST_F(FailPointTest, ParsesReturnArguments) {
  auto coded = FailPointSpec::Parse("return(Internal)");
  ASSERT_TRUE(coded.ok());
  EXPECT_EQ(coded.value().code, StatusCode::kInternal);

  auto with_message = FailPointSpec::Parse("return(IoError,disk on fire)");
  ASSERT_TRUE(with_message.ok());
  EXPECT_EQ(with_message.value().code, StatusCode::kIoError);
  EXPECT_EQ(with_message.value().message, "disk on fire");
}

TEST_F(FailPointTest, ParsesModifiers) {
  auto spec = FailPointSpec::Parse("1+25%2*return(Internal)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().skip, 1u);
  EXPECT_DOUBLE_EQ(spec.value().probability, 0.25);
  EXPECT_EQ(spec.value().max_triggers, 2u);
  EXPECT_EQ(spec.value().action, FailPointSpec::Action::kReturnError);
  EXPECT_EQ(spec.value().code, StatusCode::kInternal);
}

TEST_F(FailPointTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FailPointSpec::Parse("").ok());
  EXPECT_FALSE(FailPointSpec::Parse("explode").ok());
  EXPECT_FALSE(FailPointSpec::Parse("return(NotACode)").ok());
  EXPECT_FALSE(FailPointSpec::Parse("delay").ok());
  EXPECT_FALSE(FailPointSpec::Parse("delay()").ok());
  EXPECT_FALSE(FailPointSpec::Parse("delay(xyz)").ok());
  EXPECT_FALSE(FailPointSpec::Parse("%return").ok());
  EXPECT_FALSE(FailPointSpec::Parse("101%return").ok());
  EXPECT_FALSE(FailPointSpec::Parse("return(IoError").ok());
}

// --------------------------------------------------------------- registry

TEST_F(FailPointTest, UnarmedRegistryIsTransparent) {
  FailPoints& fp = FailPoints::Instance();
  EXPECT_FALSE(fp.AnyArmed());
  EXPECT_TRUE(fp.Evaluate("some.site").ok());
  // Fast path: nothing is recorded while the registry is fully disarmed.
  EXPECT_EQ(fp.HitCount("some.site"), 0u);
}

TEST_F(FailPointTest, ReturnModeInjectsConfiguredStatus) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "return(Internal,boom)").ok());
  EXPECT_TRUE(fp.AnyArmed());
  const Status status = fp.Evaluate("test.site");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);
  EXPECT_EQ(fp.HitCount("test.site"), 1u);
  EXPECT_EQ(fp.TriggerCount("test.site"), 1u);
}

TEST_F(FailPointTest, DefaultMessageNamesTheSite) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "return").ok());
  const Status status = fp.Evaluate("test.site");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.ToString().find("injected fault at test.site"),
            std::string::npos);
}

TEST_F(FailPointTest, SkipModifierDelaysTriggering) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "2+return").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_FALSE(fp.Evaluate("test.site").ok());
  EXPECT_EQ(fp.HitCount("test.site"), 3u);
  EXPECT_EQ(fp.TriggerCount("test.site"), 1u);
}

TEST_F(FailPointTest, MaxTriggersCapsInjection) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "2*return").ok());
  EXPECT_FALSE(fp.Evaluate("test.site").ok());
  EXPECT_FALSE(fp.Evaluate("test.site").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_EQ(fp.TriggerCount("test.site"), 2u);
}

TEST_F(FailPointTest, ProbabilisticModeIsNeitherAlwaysNorNever) {
  FailPoints& fp = FailPoints::Instance();
  fp.SetSeed(42);
  ASSERT_TRUE(fp.Enable("test.site", "50%return").ok());
  size_t failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!fp.Evaluate("test.site").ok()) ++failures;
  }
  // p=0.5 over 200 draws: anything outside [50, 150] is < 1e-12 likely.
  EXPECT_GT(failures, 50u);
  EXPECT_LT(failures, 150u);
  EXPECT_EQ(fp.TriggerCount("test.site"), failures);
}

TEST_F(FailPointTest, ProbabilisticModeIsDeterministicInSeed) {
  FailPoints& fp = FailPoints::Instance();
  auto run = [&fp]() {
    fp.Reset();
    fp.SetSeed(7);
    EXPECT_TRUE(fp.Enable("test.site", "50%return").ok());
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(fp.Evaluate("test.site").ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(FailPointTest, OffModeCountsHitsWithoutInjecting) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "off").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  EXPECT_EQ(fp.HitCount("test.site"), 2u);
  EXPECT_EQ(fp.TriggerCount("test.site"), 0u);
}

TEST_F(FailPointTest, DelayModeSleepsThenSucceeds) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "delay(30)").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fp.Evaluate("test.site").ok());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 25.0);
  EXPECT_EQ(fp.TriggerCount("test.site"), 1u);
}

TEST_F(FailPointTest, EvaluateDelayCannotInjectErrors) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("test.site", "return").ok());
  fp.EvaluateDelay("test.site");  // must not crash or inject
  EXPECT_EQ(fp.HitCount("test.site"), 1u);
  EXPECT_EQ(fp.TriggerCount("test.site"), 0u);
}

TEST_F(FailPointTest, EnableFromSpecArmsMultipleSites) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.EnableFromSpec("b.site=return;a.site=off;;").ok());
  EXPECT_EQ(fp.ArmedSites(),
            (std::vector<std::string>{"a.site", "b.site"}));
  EXPECT_FALSE(fp.EnableFromSpec("x.site=bogus").ok());
  EXPECT_FALSE(fp.EnableFromSpec("missing-equals").ok());
}

TEST_F(FailPointTest, DisableAndResetSemantics) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable("a.site", "return").ok());
  ASSERT_TRUE(fp.Enable("b.site", "return").ok());
  EXPECT_FALSE(fp.Evaluate("a.site").ok());
  fp.Disable("a.site");
  EXPECT_TRUE(fp.Evaluate("a.site").ok());
  // Counters survive Disable...
  EXPECT_EQ(fp.TriggerCount("a.site"), 1u);
  fp.DisableAll();
  EXPECT_FALSE(fp.AnyArmed());
  // ...but not Reset.
  fp.Reset();
  EXPECT_EQ(fp.TriggerCount("a.site"), 0u);
  EXPECT_EQ(fp.HitCount("a.site"), 0u);
}

TEST_F(FailPointTest, ExportsCountersThroughMetricsRegistry) {
  FailPoints& fp = FailPoints::Instance();
  MetricsRegistry registry;
  fp.AttachMetrics(&registry);
  ASSERT_TRUE(fp.Enable("test.site", "2*return").ok());
  for (int i = 0; i < 3; ++i) (void)fp.Evaluate("test.site");
  EXPECT_EQ(registry.GetCounter("failpoint.test.site.hits")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("failpoint.test.site.triggers")->value(),
            2u);
  fp.AttachMetrics(nullptr);
}

// ------------------------------------------- instrumented library seams

/// One tiny dataset + trained model shared by the seam-coverage tests.
struct SeamFixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
  ModelConfig model_config;
};

const SeamFixture& SharedSeamFixture() {
  static SeamFixture* fixture = [] {
    SyntheticConfig c;
    c.name = "robust";
    c.num_entities = 40;
    c.num_relations = 4;
    c.num_train = 300;
    c.num_valid = 15;
    c.num_test = 15;
    c.seed = 11;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 8;
    TrainerConfig tc;
    tc.epochs = 2;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 3;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new SeamFixture{std::move(dataset), std::move(model), mc};
  }();
  return *fixture;
}

std::string WriteTinyTsv(const std::string& path) {
  std::ofstream out(path);
  out << "a\tr\tb\nb\tr\tc\n";
  return path;
}

TEST_F(FailPointTest, KgIoReadSiteTriggers) {
  FailPoints& fp = FailPoints::Instance();
  const std::string path = WriteTinyTsv(scratch_.File("read.tsv"));
  Vocabulary entities, relations;
  ASSERT_TRUE(
      ReadTriplesTsv(path, &entities, &relations).ok());
  ASSERT_TRUE(fp.Enable(kFailPointKgIoRead, "return").ok());
  const auto result = ReadTriplesTsv(path, &entities, &relations);
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_GE(fp.TriggerCount(kFailPointKgIoRead), 1u);
}

TEST_F(FailPointTest, KgIoWriteSiteTriggers) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable(kFailPointKgIoWrite, "return").ok());
  Vocabulary entities, relations;
  const Status status = WriteTriplesTsv(
      scratch_.File("write.tsv"), {}, entities, relations);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_GE(fp.TriggerCount(kFailPointKgIoWrite), 1u);
}

TEST_F(FailPointTest, CheckpointSaveAndLoadSitesTrigger) {
  FailPoints& fp = FailPoints::Instance();
  const SeamFixture& f = SharedSeamFixture();
  const std::string path = scratch_.File("ckpt.bin");

  ASSERT_TRUE(fp.Enable(kFailPointCheckpointSave, "return").ok());
  EXPECT_FALSE(SaveModel(f.model.get(), f.model_config, path).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointCheckpointSave), 1u);
  fp.Disable(kFailPointCheckpointSave);

  ASSERT_TRUE(SaveModel(f.model.get(), f.model_config, path).ok());
  ASSERT_TRUE(fp.Enable(kFailPointCheckpointLoad, "return").ok());
  EXPECT_FALSE(LoadModel(path).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointCheckpointLoad), 1u);
}

TEST_F(FailPointTest, JobPhaseSitesAbortTheJob) {
  FailPoints& fp = FailPoints::Instance();
  JobSpec spec;
  spec.dataset_preset = "WN18RR";
  spec.dataset_scale = 250;
  spec.embedding_dim = 8;
  spec.trainer.epochs = 1;
  spec.trainer.loss = LossKind::kSoftplus;
  spec.discovery.top_n = 20;
  spec.discovery.max_candidates = 30;
  for (const char* site :
       {kFailPointJobDataset, kFailPointJobTrain, kFailPointJobEval,
        kFailPointJobDiscovery}) {
    fp.Reset();
    ASSERT_TRUE(fp.Enable(site, "return(Internal)").ok());
    const auto result = RunJob(spec);
    EXPECT_FALSE(result.ok()) << "site " << site << " did not abort";
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_GE(fp.TriggerCount(site), 1u) << site;
  }
}

TEST_F(FailPointTest, DiscoveryRelationSiteFailsTheRun) {
  FailPoints& fp = FailPoints::Instance();
  const SeamFixture& f = SharedSeamFixture();
  DiscoveryOptions options;
  options.top_n = 20;
  options.max_candidates = 30;
  options.seed = 5;
  ASSERT_TRUE(fp.Enable(kFailPointDiscoveryRelation, "return").ok());
  EXPECT_FALSE(DiscoverFacts(*f.model, f.dataset.train(), options).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointDiscoveryRelation), 1u);
}

TEST_F(FailPointTest, DiscoveryCancelSiteStopsGracefully) {
  // Unlike discovery.relation (a hard per-relation failure), the
  // discovery.cancel site simulates a stop *request*: the sweep winds
  // down at its next checkpoint and returns OK with partial results.
  FailPoints& fp = FailPoints::Instance();
  const SeamFixture& f = SharedSeamFixture();
  DiscoveryOptions options;
  options.top_n = 20;
  options.max_candidates = 30;
  options.seed = 5;
  ASSERT_TRUE(fp.Enable(kFailPointDiscoveryCancel, "return(Cancelled)").ok());
  auto cancelled = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled.value().stopped_reason, StoppedReason::kCancelled);
  EXPECT_TRUE(cancelled.value().facts.empty());
  EXPECT_GE(fp.TriggerCount(kFailPointDiscoveryCancel), 1u);

  // A DeadlineExceeded spec maps onto the deadline reason.
  fp.Reset();
  ASSERT_TRUE(
      fp.Enable(kFailPointDiscoveryCancel, "return(DeadlineExceeded)").ok());
  auto timed_out = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(timed_out.ok()) << timed_out.status().ToString();
  EXPECT_EQ(timed_out.value().stopped_reason, StoppedReason::kDeadline);
}

TEST_F(FailPointTest, ResumeSaveAndLoadSitesTrigger) {
  FailPoints& fp = FailPoints::Instance();
  const std::string path = scratch_.File("manifest.bin");
  ResumeManifest manifest;
  manifest.model_name = "TransE";

  ASSERT_TRUE(fp.Enable(kFailPointResumeSave, "return").ok());
  EXPECT_FALSE(ResumeManifestWriter::Create(path, manifest).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointResumeSave), 1u);
  fp.Disable(kFailPointResumeSave);

  auto writer = ResumeManifestWriter::Create(path, manifest);
  ASSERT_TRUE(writer.ok());
  // Appends evaluate the same site, mid-frame.
  ASSERT_TRUE(fp.Enable(kFailPointResumeSave, "return").ok());
  EXPECT_FALSE(writer.value()->AppendRelation({}).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointResumeSave), 2u);
  fp.Disable(kFailPointResumeSave);

  ASSERT_TRUE(fp.Enable(kFailPointResumeLoad, "return").ok());
  EXPECT_FALSE(LoadResumeManifest(path).ok());
  EXPECT_GE(fp.TriggerCount(kFailPointResumeLoad), 1u);
}

TEST_F(FailPointTest, ThreadPoolDispatchSiteDelaysTasks) {
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable(kFailPointThreadPoolDispatch, "delay(1)").ok());
  ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  ParallelFor(&pool, 16,
              [&sum](size_t begin, size_t end) { sum += end - begin; });
  EXPECT_EQ(sum.load(), 16u);
  EXPECT_GE(fp.TriggerCount(kFailPointThreadPoolDispatch), 1u);
}

/// Acceptance guard: every registered site appears in kAllFailPointSites
/// (the coverage tests above go through the real library seams; this one
/// proves the documented list and the constants stay in sync).
TEST_F(FailPointTest, EveryDocumentedSiteIsArmable) {
  FailPoints& fp = FailPoints::Instance();
  for (const char* site : kAllFailPointSites) {
    ASSERT_TRUE(fp.Enable(site, "off").ok()) << site;
    EXPECT_TRUE(fp.Evaluate(site).ok()) << site;
    EXPECT_EQ(fp.HitCount(site), 1u) << site;
  }
  EXPECT_EQ(fp.ArmedSites().size(),
            sizeof(kAllFailPointSites) / sizeof(kAllFailPointSites[0]));
}

// ------------------------------------------------------------------ retry

TEST_F(FailPointTest, RetrySucceedsFirstTry) {
  RetryPolicy policy;
  size_t calls = 0;
  auto result = Retry<int>(policy, "op", [&calls]() -> Result<int> {
    ++calls;
    return 7;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(calls, 1u);
}

TEST_F(FailPointTest, RetryRecoversFromTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0.1;
  size_t calls = 0;
  auto result = Retry<int>(policy, "op", [&calls]() -> Result<int> {
    if (++calls < 3) return Status::IoError("flaky");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  // Two failures, two backoffs, then the success: no attempt past it.
  EXPECT_EQ(calls, 3u);
}

TEST_F(FailPointTest, RetryDoesNotRetryNonTransientErrors) {
  RetryPolicy policy;
  size_t calls = 0;
  auto result = Retry<int>(policy, "op", [&calls]() -> Result<int> {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1u);
  // Non-retryable errors keep their original message, no attempt prefix.
  EXPECT_EQ(result.status().ToString().find("attempts"),
            std::string::npos);
}

TEST_F(FailPointTest, RetryExhaustionDecoratesTheError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0.1;
  size_t calls = 0;
  const Status status = RetryStatus(policy, "SaveThing", [&calls]() {
    ++calls;
    return Status::IoError("disk gone");
  });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3u);
  EXPECT_NE(status.ToString().find("SaveThing failed after 3 attempts"),
            std::string::npos);
  EXPECT_NE(status.ToString().find("disk gone"), std::string::npos);
}

TEST_F(FailPointTest, RetryBackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 5.0;
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 1), 1.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 2), 2.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 3), 4.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 4), 5.0);  // capped
  EXPECT_DOUBLE_EQ(RetryBackoffMs(policy, 10), 5.0);
}

TEST_F(FailPointTest, RetryAbsorbsInjectedTransientFaults) {
  // The fail point fails the first two reads; the dataset-load retry path
  // rides through them — the end-to-end contract the two features exist
  // to provide.
  FailPoints& fp = FailPoints::Instance();
  const std::string path = WriteTinyTsv(scratch_.File("retry.tsv"));
  ASSERT_TRUE(fp.Enable(kFailPointKgIoRead, "2*return").ok());
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 0.1;
  Vocabulary entities, relations;
  auto result = Retry<std::vector<Triple>>(
      policy, "ReadTriplesTsv", [&]() {
        return ReadTriplesTsv(path, &entities, &relations);
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().size(), 2u);
  EXPECT_EQ(fp.TriggerCount(kFailPointKgIoRead), 2u);
  EXPECT_EQ(fp.HitCount(kFailPointKgIoRead), 3u);
}

TEST_F(FailPointTest, LoadDatasetDirRetriesInjectedFaults) {
  FailPoints& fp = FailPoints::Instance();
  const SeamFixture& f = SharedSeamFixture();
  const std::string dir = scratch_.File("dataset");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatasetDir(f.dataset, dir).ok());

  ASSERT_TRUE(fp.Enable(kFailPointKgIoRead, "1*return").ok());
  RetryPolicy policy;
  policy.initial_backoff_ms = 0.1;
  auto loaded = LoadDatasetDir(dir, "fp_dataset", policy);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().train().size(), f.dataset.train().size());

  // Without retries the same injection is fatal.
  fp.Reset();
  ASSERT_TRUE(fp.Enable(kFailPointKgIoRead, "1*return").ok());
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  EXPECT_FALSE(LoadDatasetDir(dir, "fp_dataset", no_retry).ok());
}

}  // namespace
}  // namespace kgfd
