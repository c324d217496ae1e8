#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "server/job_journal.h"
#include "server/job_manager.h"
#include "util/failpoint.h"
#include "util/framed_log.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// On-disk fixture shared by every test in this binary: a synthetic
/// dataset directory plus a trained checkpoint (same recipe as
/// integration_server_test, rebuilt here because crash/restart tests need
/// their own JobManager lifecycles, not a live HTTP stack).
struct DiskFixture {
  std::string root;
  std::string data_dir;
  std::string checkpoint;
};

const DiskFixture& SharedDiskFixture() {
  static DiskFixture* fixture = [] {
    auto f = new DiskFixture();
    // Shared by every test of the process; removed at exit.
    static const ScratchDir root("fixture");
    f->root = root.path();
    f->data_dir = f->root + "/data";
    f->checkpoint = f->root + "/model.bin";
    std::filesystem::create_directories(f->data_dir);

    SyntheticConfig c;
    c.name = "recover";
    c.num_entities = 50;
    c.num_relations = 5;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 13;
    Dataset dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    SaveDatasetDir(dataset, f->data_dir).AbortIfNotOk("save dataset");

    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 10;
    TrainerConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 3;
    std::unique_ptr<Model> model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    SaveModel(model.get(), mc, f->checkpoint).AbortIfNotOk("save model");
    return f;
  }();
  return *fixture;
}

std::string TestJobConfig() {
  const DiskFixture& f = SharedDiskFixture();
  return "data.dir = " + f.data_dir + "\n" +
         "model.checkpoint = " + f.checkpoint + "\n" +
         "discovery.top_n = 25\ndiscovery.max_candidates = 60\n";
}

bool IsTerminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

/// Polls GetStatus until `done(status)` holds; fails the test on timeout.
JobStatus AwaitJob(const JobManager& jobs, const std::string& id,
                   const std::function<bool(const JobStatus&)>& done,
                   double timeout_s = 60.0) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(timeout_s);
  JobStatus last;
  while (std::chrono::steady_clock::now() < give_up) {
    auto status = jobs.GetStatus(id);
    if (status.ok()) {
      last = status.value();
      if (done(last)) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "timeout waiting for job " << id << " (last state "
                << JobStateName(last.state) << ", " << last.relations_done
                << " relations, " << last.attempts << " attempts)";
  return last;
}

JobStatus AwaitTerminal(const JobManager& jobs, const std::string& id,
                        double timeout_s = 60.0) {
  return AwaitJob(
      jobs, id, [](const JobStatus& s) { return IsTerminal(s.state); },
      timeout_s);
}

/// The facts TSV an uninterrupted run of TestJobConfig() produces — the
/// byte-identity reference every crash/recovery path below must match.
const std::string& ReferenceFactsTsv() {
  static std::string* facts = [] {
    const std::string dir = SharedDiskFixture().root + "/ref_jobs";
    std::filesystem::create_directories(dir);
    ThreadPool pool(4);
    JobManager::Options options;
    options.work_dir = dir;
    options.pool = &pool;
    JobManager jobs(std::move(options));
    const std::string id =
        std::move(jobs.Submit(TestJobConfig())).ValueOrDie("submit");
    const JobStatus status = AwaitTerminal(jobs, id);
    EXPECT_EQ(status.state, JobState::kDone);
    std::string tsv = std::move(jobs.FactsTsv(id)).ValueOrDie("facts");
    EXPECT_FALSE(tsv.empty());
    return new std::string(std::move(tsv));
  }();
  return *facts;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    // Pin the reference before any test arms a failpoint.
    ASSERT_FALSE(ReferenceFactsTsv().empty());
    work_dir_ = ScratchPath("jobs");
    std::filesystem::remove_all(work_dir_);
    pool_ = std::make_unique<ThreadPool>(4);
    metrics_ = std::make_unique<MetricsRegistry>();
  }

  void TearDown() override {
    FailPoints::Instance().Reset();
    std::filesystem::remove_all(work_dir_);
  }

  JobManager::Options BaseOptions(MetricsRegistry* metrics = nullptr) {
    JobManager::Options options;
    options.work_dir = work_dir_;
    options.pool = pool_.get();
    options.metrics = metrics != nullptr ? metrics : metrics_.get();
    return options;
  }

  uint64_t CounterValue(const char* name) {
    return metrics_->GetCounter(name)->value();
  }

  std::string work_dir_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MetricsRegistry> metrics_;
};

TEST_F(RecoveryTest, QueuedJobsRecoverInSubmissionOrderAndComplete) {
  // Three accepted jobs, server killed while the first is mid-sweep: after
  // the restart all three must still exist, in submission order, and run
  // to the same bytes an undisturbed server would have produced.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(250)")
                  .ok());
  const std::string id1 =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("j1");
  const std::string id2 =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("j2");
  const std::string id3 =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("j3");
  AwaitJob(*jobs, id1,
           [](const JobStatus& s) { return s.state == JobState::kRunning; });
  jobs->KillForTesting();
  jobs.reset();
  FailPoints::Instance().Reset();

  jobs = std::make_unique<JobManager>(BaseOptions());
  EXPECT_EQ(jobs->recovery().jobs_recovered, 3u);
  EXPECT_EQ(jobs->recovery().jobs_restored, 0u);
  EXPECT_EQ(jobs->recovery().jobs_poisoned, 0u);
  const std::vector<JobStatus> listed = jobs->ListJobs();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].id, id1);
  EXPECT_EQ(listed[1].id, id2);
  EXPECT_EQ(listed[2].id, id3);
  for (const std::string& id : {id1, id2, id3}) {
    const JobStatus status = AwaitTerminal(*jobs, id);
    EXPECT_EQ(status.state, JobState::kDone) << id << ": " << status.error;
    EXPECT_TRUE(status.recovered);
    EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
              ReferenceFactsTsv())
        << id;
  }
  // New ids must not collide with recovered ones.
  const std::string id4 =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("j4");
  EXPECT_NE(id4, id1);
  EXPECT_NE(id4, id2);
  EXPECT_NE(id4, id3);
}

TEST_F(RecoveryTest, MidSweepKillResumesBitIdentical) {
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(250)")
                  .ok());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  AwaitJob(*jobs, id,
           [](const JobStatus& s) { return s.relations_done >= 1; });
  jobs->KillForTesting();
  jobs.reset();
  FailPoints::Instance().Reset();

  // Fresh registry so the counters below measure only the resumed attempt.
  MetricsRegistry after;
  jobs = std::make_unique<JobManager>(BaseOptions(&after));
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  const JobStatus status = AwaitTerminal(*jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_TRUE(status.recovered);
  // Progress is read back from the manifest, not re-counted from zero or
  // counted twice: the resumed attempt ends at exactly every relation.
  EXPECT_EQ(status.relations_total, 5u);
  EXPECT_EQ(status.relations_done, status.relations_total);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
  // The resume manifest did its job: the second attempt skipped the
  // relations the killed attempt had already completed.
  EXPECT_LT(after.GetCounter(kDiscoveryRelationsCounter)->value(), 5u);
  EXPECT_GT(after.GetCounter(kServerJobsRecoveredCounter)->value(), 0u);
}

TEST_F(RecoveryTest, PreTerminalFlushCrashReRunsToIdenticalFacts) {
  // The nastiest window: the job finished in memory but the crash lands
  // before the facts file + terminal record reach disk. The restart must
  // re-run the job (fast, through its manifest) to the same bytes.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointJournalTerminal, "return(IoError)")
                  .ok());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  const JobStatus in_memory = AwaitTerminal(*jobs, id);
  EXPECT_EQ(in_memory.state, JobState::kDone);
  // Terminal was suppressed: no facts file was persisted.
  EXPECT_FALSE(
      std::filesystem::exists(work_dir_ + "/" + id + ".facts.tsv"));
  jobs->KillForTesting();
  jobs.reset();
  FailPoints::Instance().Reset();

  jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  EXPECT_EQ(jobs->recovery().jobs_restored, 0u);
  const JobStatus status = AwaitTerminal(*jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
  EXPECT_TRUE(std::filesystem::exists(work_dir_ + "/" + id + ".facts.tsv"));
}

TEST_F(RecoveryTest, LostOrTornFactsFileReRunsToIdenticalFacts) {
  // A journaled `done` whose facts file is later deleted or truncated must
  // not serve an empty or short body under its old fact count: recovery
  // re-runs the job (a no-op resume through its finished manifest) to the
  // same bytes. The first run also syncs the facts file, as under
  // --journal_fsync.
  JobManager::Options options = BaseOptions();
  options.journal.fsync = true;
  auto jobs = std::make_unique<JobManager>(options);
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  ASSERT_EQ(AwaitTerminal(*jobs, id).state, JobState::kDone);
  jobs->Shutdown();
  jobs.reset();

  const std::string facts_path = work_dir_ + "/" + id + ".facts.tsv";
  const std::function<void()> damages[] = {
      [&] { std::filesystem::remove(facts_path); },
      [&] {
        std::filesystem::resize_file(
            facts_path, std::filesystem::file_size(facts_path) - 5);
      },
      // A work dir from a build before the framed formats: a plain TSV
      // and a version-3 manifest. The manifest cannot be replayed, so the
      // re-run starts over — to the same bytes.
      [&] {
        std::ofstream(facts_path) << ReferenceFactsTsv();
        std::ofstream(work_dir_ + "/" + id + ".manifest", std::ios::binary)
            << std::string("KGFDRSUM\x03\0\0\0", 12) << "old payload";
      }};
  for (const auto& damage : damages) {
    damage();
    jobs = std::make_unique<JobManager>(BaseOptions());
    EXPECT_EQ(jobs->recovery().jobs_recovered, 1u);
    EXPECT_EQ(jobs->recovery().jobs_restored, 0u);
    const JobStatus status = AwaitTerminal(*jobs, id);
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
              ReferenceFactsTsv());
    jobs->Shutdown();
    jobs.reset();
  }
  // Whole again: the next boot restores the job without re-running it.
  jobs = std::make_unique<JobManager>(BaseOptions());
  EXPECT_EQ(jobs->recovery().jobs_restored, 1u);
  EXPECT_EQ(jobs->recovery().jobs_recovered, 0u);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, RestoredJobServesFactsFromItsFileOnly) {
  // The facts file is the one copy of a terminal job's facts: a restored
  // job serves it, and once it is gone the job answers with the read
  // error instead of a body kept in memory.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  ASSERT_EQ(AwaitTerminal(*jobs, id).state, JobState::kDone);
  jobs->Shutdown();
  jobs.reset();

  jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_EQ(jobs->recovery().jobs_restored, 1u);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
  ASSERT_TRUE(std::filesystem::remove(work_dir_ + "/" + id + ".facts.tsv"));
  const auto facts = jobs->FactsTsv(id);
  EXPECT_FALSE(facts.ok());
  EXPECT_EQ(facts.status().code(), StatusCode::kIoError)
      << facts.status().ToString();
  EXPECT_EQ(std::move(jobs->GetStatus(id)).ValueOrDie("status").state,
            JobState::kDone);
}

TEST_F(RecoveryTest, RestoredTerminalJobKeepsItsRelationProgress) {
  // A finished job reads N/N relations; after a restart restores it from
  // the journal, its progress comes back from the manifest as N/N, not 0/0.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  const JobStatus before = AwaitTerminal(*jobs, id);
  ASSERT_EQ(before.state, JobState::kDone);
  EXPECT_EQ(before.relations_total, 5u);
  EXPECT_EQ(before.relations_done, 5u);
  jobs->Shutdown();
  jobs.reset();

  jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_EQ(jobs->recovery().jobs_restored, 1u);
  const JobStatus after =
      std::move(jobs->GetStatus(id)).ValueOrDie("status");
  EXPECT_EQ(after.state, JobState::kDone);
  EXPECT_EQ(after.relations_total, before.relations_total);
  EXPECT_EQ(after.relations_done, before.relations_done);
  jobs->Shutdown();
  jobs.reset();

  // Without its manifest the restored job claims no progress.
  ASSERT_TRUE(std::filesystem::remove(work_dir_ + "/" + id + ".manifest"));
  jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_EQ(jobs->recovery().jobs_restored, 1u);
  const JobStatus bare = std::move(jobs->GetStatus(id)).ValueOrDie("status");
  EXPECT_EQ(bare.state, JobState::kDone);
  EXPECT_EQ(bare.relations_total, 0u);
  EXPECT_EQ(bare.relations_done, 0u);
}

TEST_F(RecoveryTest, OlderJournalWithRunKindJobAndProgressRecordsBoots) {
  // A journal as older builds wrote it: a run-kind job (a kind the server
  // no longer runs) interrupted mid-pipeline, and a discover job killed
  // mid-sweep, each with per-relation progress records (type 3). The boot
  // fails the first descriptively, skips the progress records, and runs the
  // second to the reference bytes.
  std::filesystem::create_directories(work_dir_);
  auto frame = [](const std::string& payload) {
    std::string out;
    AppendFrame(&out, payload);
    return out;
  };
  auto submitted = [&](const std::string& id, const std::string& config) {
    JournalRecord r;
    r.type = JournalRecord::Type::kSubmitted;
    r.job_id = id;
    r.config_text = config;
    return frame(JobJournal::EncodePayload(r));
  };
  auto started = [&](const std::string& id) {
    JournalRecord r;
    r.type = JournalRecord::Type::kStarted;
    r.job_id = id;
    r.attempt = 1;
    return frame(JobJournal::EncodePayload(r));
  };
  auto progress = [&](const std::string& id, uint64_t relations) {
    std::string payload;
    Put(&payload, uint8_t{3});
    PutString(&payload, id);
    Put(&payload, relations);
    Put(&payload, uint64_t{0});
    return frame(payload);
  };
  {
    std::ofstream out(work_dir_ + "/journal.000001.log", std::ios::binary);
    out << FramedHeader(kJournalFormat)
        << submitted("j1",
                     "job.kind = run\ndataset.preset = FB15K-237\n"
                     "model.type = TransE\ntrain.epochs = 1\n")
        << started("j1") << progress("j1", 1) << progress("j1", 2)
        << submitted("j2", TestJobConfig()) << started("j2")
        << progress("j2", 1);
  }

  JobManager jobs(BaseOptions());
  EXPECT_TRUE(jobs.recovery().journal_error.empty())
      << jobs.recovery().journal_error;
  EXPECT_EQ(jobs.recovery().quarantined_segments, 0u);
  EXPECT_EQ(jobs.recovery().replayed_records, 4u);
  EXPECT_EQ(jobs.recovery().jobs_restored, 1u);
  EXPECT_EQ(jobs.recovery().jobs_recovered, 1u);

  const JobStatus run = std::move(jobs.GetStatus("j1")).ValueOrDie("j1");
  EXPECT_EQ(run.state, JobState::kFailed);
  EXPECT_NE(run.error.find("recovered job config no longer parses"),
            std::string::npos)
      << run.error;
  EXPECT_NE(run.error.find("kgfd_cli run"), std::string::npos) << run.error;

  const JobStatus discover = AwaitTerminal(jobs, "j2");
  EXPECT_EQ(discover.state, JobState::kDone) << discover.error;
  EXPECT_EQ(discover.relations_done, discover.relations_total);
  EXPECT_EQ(std::move(jobs.FactsTsv("j2")).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, AdvancingKillChaosLoopRecoversAtEveryPoint) {
  // Kill-9 at three distinct points of one job's life — just submitted,
  // mid-sweep, and pre-terminal-flush — restarting after each. The final
  // boot must deliver the exact reference bytes.
  JobManager::Options options = BaseOptions();
  options.retry.max_attempts = 10;  // the chaos itself must not poison

  auto jobs = std::make_unique<JobManager>(options);
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(250)")
                  .ok());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  jobs->KillForTesting();  // point 1: queued / barely started
  jobs.reset();

  jobs = std::make_unique<JobManager>(options);
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  AwaitJob(*jobs, id,
           [](const JobStatus& s) { return s.relations_done >= 1; });
  jobs->KillForTesting();  // point 2: mid-sweep
  jobs.reset();
  FailPoints::Instance().Reset();

  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointJournalTerminal, "return(IoError)")
                  .ok());
  jobs = std::make_unique<JobManager>(options);
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  EXPECT_EQ(AwaitTerminal(*jobs, id).state, JobState::kDone);
  jobs->KillForTesting();  // point 3: done in memory, terminal unflushed
  jobs.reset();
  FailPoints::Instance().Reset();

  jobs = std::make_unique<JobManager>(options);
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  const JobStatus status = AwaitTerminal(*jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.recovered);
  EXPECT_GE(status.attempts, 3u);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());

  // A further restart restores the terminal job without re-running it.
  jobs.reset();
  jobs = std::make_unique<JobManager>(options);
  EXPECT_EQ(jobs->recovery().jobs_restored, 1u);
  EXPECT_EQ(jobs->recovery().jobs_recovered, 0u);
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, WatchdogStallRetriesThenSucceeds) {
  JobManager::Options options = BaseOptions();
  options.stall_timeout_s = 0.15;
  options.watchdog_poll_s = 0.02;
  options.retry.max_attempts = 3;
  JobManager jobs(options);

  // The first two relation visits hang for ~1s (heartbeats silent), so the
  // watchdog cancels at least one attempt; the budget absorbs the stalls
  // and the job still completes. (Relations are processed in parallel, so
  // both delay triggers may burn within a single attempt — the exact-count
  // contract is pinned by StallPoisonedAfterExactlyNAttempts below.)
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "2*delay(1000)")
                  .ok());
  const std::string id =
      std::move(jobs.Submit(TestJobConfig())).ValueOrDie("submit");
  const JobStatus status = AwaitTerminal(jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_GE(status.attempts, 2u);
  EXPECT_LE(status.attempts, 3u);
  EXPECT_GE(CounterValue(kServerWatchdogStallsCounter), 1u);
  EXPECT_EQ(CounterValue(kServerJobsRetriedCounter), status.attempts - 1);
  EXPECT_EQ(CounterValue(kServerJobsPoisonedCounter), 0u);
  EXPECT_EQ(std::move(jobs.FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, StallPoisonedAfterExactlyNAttempts) {
  JobManager::Options options = BaseOptions();
  options.stall_timeout_s = 0.15;
  options.watchdog_poll_s = 0.02;
  options.retry.max_attempts = 2;
  JobManager jobs(options);

  // Every relation visit hangs past the stall timeout: both allowed
  // attempts stall, and the job must land in failed_poisoned — not retry
  // forever, not report a user cancellation.
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(800)")
                  .ok());
  const std::string id =
      std::move(jobs.Submit(TestJobConfig())).ValueOrDie("submit");
  const JobStatus status = AwaitTerminal(jobs, id);
  EXPECT_EQ(status.state, JobState::kFailedPoisoned);
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_NE(status.error.find("poisoned after 2 attempts"),
            std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("watchdog stall"), std::string::npos)
      << status.error;
  EXPECT_EQ(CounterValue(kServerJobsPoisonedCounter), 1u);
  EXPECT_EQ(CounterValue(kServerJobsRetriedCounter), 1u);
  EXPECT_GE(CounterValue(kServerWatchdogStallsCounter), 2u);
  // Terminal means facts are servable (partial — completed relations).
  EXPECT_TRUE(jobs.FactsTsv(id).ok());
}

TEST_F(RecoveryTest, CrashLoopingJobIsQuarantinedAtBoot) {
  JobManager::Options options = BaseOptions();
  options.retry.max_attempts = 1;  // boot budget = 2 attempts
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(250)")
                  .ok());

  auto jobs = std::make_unique<JobManager>(options);
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  for (int crash = 0; crash < 2; ++crash) {
    // A recovered job already carries the previous boot's attempt count,
    // so wait for a NEW attempt to start before each kill.
    const uint32_t want_attempt = static_cast<uint32_t>(crash + 1);
    AwaitJob(*jobs, id, [want_attempt](const JobStatus& s) {
      return s.attempts >= want_attempt && s.state == JobState::kRunning;
    });
    jobs->KillForTesting();
    jobs.reset();
    jobs = std::make_unique<JobManager>(options);
  }

  // Two boots already burned attempts 1 and 2; the third must quarantine
  // instead of running the job a third time.
  EXPECT_EQ(jobs->recovery().jobs_poisoned, 1u);
  EXPECT_EQ(jobs->recovery().jobs_recovered, 0u);
  const JobStatus status =
      std::move(jobs->GetStatus(id)).ValueOrDie("status");
  EXPECT_EQ(status.state, JobState::kFailedPoisoned);
  EXPECT_NE(status.error.find("quarantined at boot"), std::string::npos)
      << status.error;

  // The quarantine decision itself is durable: the next boot restores the
  // poisoned terminal instead of re-deciding.
  jobs->Shutdown();
  jobs.reset();
  jobs = std::make_unique<JobManager>(options);
  EXPECT_EQ(jobs->recovery().jobs_restored, 1u);
  EXPECT_EQ(jobs->recovery().jobs_poisoned, 0u);
  EXPECT_EQ(std::move(jobs->GetStatus(id)).ValueOrDie("status").state,
            JobState::kFailedPoisoned);
}

TEST_F(RecoveryTest, CancelledQueuedJobNeverRunsAndStaysCancelled) {
  // Satellite: DELETE on a still-queued job dequeues it immediately — it
  // must never consume compute, and the cancellation must survive a
  // restart.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(150)")
                  .ok());
  const std::string blocker =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("blocker");
  const std::string queued =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("queued");
  ASSERT_TRUE(jobs->Cancel(queued).ok());

  // Terminal instantly, before the blocker even finished.
  const JobStatus cancelled =
      std::move(jobs->GetStatus(queued)).ValueOrDie("status");
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.attempts, 0u);
  EXPECT_TRUE(jobs->FactsTsv(queued).ok());

  EXPECT_EQ(AwaitTerminal(*jobs, blocker).state, JobState::kDone);
  // Only the blocker's sweep touched the discovery pipeline: one job's
  // worth of relations, not two.
  EXPECT_EQ(CounterValue(kDiscoveryRelationsCounter), 5u);

  jobs->Shutdown();
  jobs.reset();
  jobs = std::make_unique<JobManager>(BaseOptions());
  EXPECT_EQ(jobs->recovery().jobs_restored, 2u);
  EXPECT_EQ(jobs->recovery().jobs_recovered, 0u);
  EXPECT_EQ(std::move(jobs->GetStatus(queued)).ValueOrDie("status").state,
            JobState::kCancelled);
  EXPECT_EQ(CounterValue(kDiscoveryRelationsCounter), 5u);
}

TEST_F(RecoveryTest, GarbageJournalIsQuarantinedAndServingContinues) {
  std::filesystem::create_directories(work_dir_);
  {
    std::ofstream out(work_dir_ + "/journal.000001.log", std::ios::binary);
    out << "this is not a kgfd journal but is longer than a header";
  }
  JobManager jobs(BaseOptions());
  EXPECT_FALSE(jobs.recovery().journal_error.empty());
  EXPECT_EQ(jobs.recovery().quarantined_segments, 1u);
  EXPECT_TRUE(std::filesystem::exists(work_dir_ +
                                      "/journal.000001.log.corrupt"));
  EXPECT_EQ(CounterValue(kServerJournalQuarantinedCounter), 1u);

  // Degraded but serving: a fresh journal took over.
  const std::string id =
      std::move(jobs.Submit(TestJobConfig())).ValueOrDie("submit");
  const JobStatus status = AwaitTerminal(jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(std::move(jobs.FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, DrainKeepQueuedHandsJobsToTheNextBoot) {
  JobManager::Options options = BaseOptions();
  options.cancel_queued_on_drain = false;  // kgfd_server --drain_keep_queued
  auto jobs = std::make_unique<JobManager>(options);
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(250)")
                  .ok());
  const std::string running =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("running");
  const std::string queued =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("queued");
  AwaitJob(*jobs, running,
           [](const JobStatus& s) { return s.state == JobState::kRunning; });
  jobs->Shutdown();

  // The in-flight job was cancelled cooperatively; the queued one was NOT
  // cancelled — it stays durable for the next boot.
  EXPECT_EQ(std::move(jobs->GetStatus(running)).ValueOrDie("r").state,
            JobState::kCancelled);
  EXPECT_EQ(std::move(jobs->GetStatus(queued)).ValueOrDie("q").state,
            JobState::kQueued);
  jobs.reset();
  FailPoints::Instance().Reset();

  jobs = std::make_unique<JobManager>(BaseOptions());
  EXPECT_GE(jobs->recovery().jobs_recovered, 1u);
  const JobStatus status = AwaitTerminal(*jobs, queued);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(std::move(jobs->FactsTsv(queued)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

TEST_F(RecoveryTest, TornJournalTailIsDroppedAndCounted) {
  // Chop bytes off the live journal (a torn final append) and reboot: the
  // manager must recover what survived and report the dropped tail.
  auto jobs = std::make_unique<JobManager>(BaseOptions());
  const std::string id =
      std::move(jobs->Submit(TestJobConfig())).ValueOrDie("submit");
  EXPECT_EQ(AwaitTerminal(*jobs, id).state, JobState::kDone);
  jobs->KillForTesting();
  jobs.reset();

  const std::string segment = work_dir_ + "/journal.000001.log";
  const auto size = std::filesystem::file_size(segment);
  ASSERT_GT(size, 5u);
  std::filesystem::resize_file(segment, size - 5);

  MetricsRegistry after;
  jobs = std::make_unique<JobManager>(BaseOptions(&after));
  EXPECT_GT(jobs->recovery().truncated_bytes, 0u);
  EXPECT_GT(after.GetCounter(kServerJournalTruncatedBytesCounter)->value(),
            0u);
  // The torn record was the terminal one; the job simply re-runs.
  ASSERT_EQ(jobs->recovery().jobs_recovered, 1u);
  const JobStatus status = AwaitTerminal(*jobs, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(std::move(jobs->FactsTsv(id)).ValueOrDie("facts"),
            ReferenceFactsTsv());
}

}  // namespace
}  // namespace kgfd
