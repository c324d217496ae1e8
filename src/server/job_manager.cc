#include "server/job_manager.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/discovery_options.h"
#include "core/report.h"
#include "core/resume.h"
#include "core/strategy.h"
#include "kg/io.h"
#include "kge/checkpoint.h"
#include "obs/metrics.h"
#include "util/config_file.h"
#include "util/failpoint.h"
#include "util/framed_log.h"
#include "util/timer.h"

namespace kgfd {
namespace {

/// Mixes one value into a running fingerprint (golden-ratio mix, same
/// shape as boost::hash_combine). Used to extend the model-parameter hash
/// with the graph shape so two models over different KGs never share a
/// DiscoveryCache.
void MixFingerprint(uint64_t* fp, uint64_t v) {
  *fp ^= v + 0x9E3779B97F4A7C15ULL + (*fp << 6) + (*fp >> 2);
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("JobManager work_dir must be set");
  }
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + path +
                           ") failed: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stable on-disk encoding of the terminal JobStates (journal kTerminal
/// records). Values are part of the journal format — never renumber.
uint8_t JobStateToJournal(JobState state) {
  switch (state) {
    case JobState::kDone:
      return 1;
    case JobState::kCancelled:
      return 2;
    case JobState::kDeadline:
      return 3;
    case JobState::kFailed:
      return 4;
    case JobState::kFailedPoisoned:
      return 5;
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // never journaled as terminal
  }
  return 4;
}

JobState JobStateFromJournal(uint8_t encoded) {
  switch (encoded) {
    case 1:
      return JobState::kDone;
    case 2:
      return JobState::kCancelled;
    case 3:
      return JobState::kDeadline;
    case 4:
      return JobState::kFailed;
    case 5:
      return JobState::kFailedPoisoned;
    default:
      // Unknown terminal code from a future format revision: the job is
      // over either way; surface it as failed rather than re-running it.
      return JobState::kFailed;
  }
}

/// A terminal job's facts file: its facts TSV as the one record of a
/// framed file, so recovery can tell a torn or damaged file from a whole one.
constexpr FramedFormat kFactsFormat{"KGFDFACT", 1, "facts file"};

std::string FactsPathFor(const std::string& work_dir,
                         const std::string& job_id) {
  return work_dir + "/" + job_id + ".facts.tsv";
}

/// Numeric part of "j<N>" job ids, 0 if the id has another shape.
uint64_t JobIdNumber(const std::string& id) {
  if (id.size() < 2 || id[0] != 'j') return 0;
  uint64_t n = 0;
  for (size_t i = 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    n = n * 10 + static_cast<uint64_t>(id[i] - '0');
  }
  return n;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kDeadline:
      return "deadline";
    case JobState::kFailed:
      return "failed";
    case JobState::kFailedPoisoned:
      return "failed_poisoned";
  }
  return "unknown";
}

Result<JobRequest> JobRequest::Parse(const std::string& config_text) {
  KGFD_ASSIGN_OR_RETURN(const ConfigFile config,
                        ConfigFile::Parse(config_text));
  JobRequest request;
  request.config_text = config_text;

  const std::string kind = config.GetString("job.kind", "discover");
  if (kind != "discover") {
    return Status::InvalidArgument(
        "job.kind must be 'discover', got '" + kind +
        "'; run a full pipeline with `kgfd_cli run --config`");
  }
  KGFD_ASSIGN_OR_RETURN(request.deadline_s,
                        config.GetDouble("deadline_s", 0.0));
  if (request.deadline_s < 0) {
    return Status::InvalidArgument("deadline_s must be >= 0, got " +
                                   std::to_string(request.deadline_s));
  }

  request.data_dir = config.GetString("data.dir", "");
  if (request.data_dir.empty()) {
    return Status::InvalidArgument("discover job requires data.dir");
  }
  request.checkpoint = config.GetString("model.checkpoint", "");
  if (request.checkpoint.empty()) {
    return Status::InvalidArgument("discover job requires model.checkpoint");
  }

  request.discovery.strategy = DefaultSamplingStrategy();
  KGFD_RETURN_NOT_OK(
      ApplyDiscoveryOptions(config, "discovery.", &request.discovery));

  KGFD_RETURN_NOT_OK(config.CheckAllRead());
  return request;
}

Status EnsureJobWorkDir(const std::string& path) {
  return EnsureDirectory(path);
}

JobManager::JobManager(Options options) : options_(std::move(options)) {
  // Best-effort: the server binary calls EnsureJobWorkDir first for a clean
  // startup error; this covers direct (test) construction.
  (void)EnsureDirectory(options_.work_dir).ok();
  if (options_.metrics != nullptr) {
    // Pre-register the counters so /metrics exports the full series from
    // boot instead of materializing them on first use.
    for (const char* name :
         {kServerJobsSubmittedCounter, kServerJobsCompletedCounter,
          kServerJobsRejectedCounter, kServerModelCacheHitsCounter,
          kServerModelCacheMissesCounter, kServerJournalRecordsCounter,
          kServerJournalErrorsCounter, kServerJournalRotationsCounter,
          kServerJournalTruncatedBytesCounter,
          kServerJournalQuarantinedCounter, kServerJobsRecoveredCounter,
          kServerJobsRetriedCounter, kServerJobsPoisonedCounter,
          kServerWatchdogStallsCounter}) {
      options_.metrics->GetCounter(name);
    }
  }
  OpenJournal();  // replays + rebuilds state; runs before any thread exists
  runner_ = std::thread([this] { RunnerLoop(); });
  if (options_.stall_timeout_s > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

JobManager::~JobManager() { Shutdown(); }

void JobManager::BumpCounter(const char* name, uint64_t delta) {
  if (options_.metrics != nullptr && delta > 0) {
    options_.metrics->GetCounter(name)->Increment(delta);
  }
}

void JobManager::OpenJournal() {
  JobJournal::ReplayResult replay;
  auto opened = JobJournal::Open(options_.work_dir, options_.journal,
                                 &replay);
  if (!opened.ok()) {
    // A journal we cannot replay (foreign magic, unsupported version) must
    // not take the server down with it, and must not be silently deleted
    // either: move the segments aside for inspection and boot fresh.
    recovery_.journal_error = opened.status().ToString();
    auto quarantined = JobJournal::QuarantineSegments(options_.work_dir);
    if (quarantined.ok()) {
      recovery_.quarantined_segments = quarantined.value();
      BumpCounter(kServerJournalQuarantinedCounter, quarantined.value());
    }
    replay = JobJournal::ReplayResult{};
    opened = JobJournal::Open(options_.work_dir, options_.journal, &replay);
  }
  if (opened.ok()) {
    journal_ = std::move(opened).value();
  } else if (recovery_.journal_error.empty()) {
    // Unwritable work_dir etc.: degrade to the pre-durability in-memory
    // behavior instead of refusing to serve.
    recovery_.journal_error = opened.status().ToString();
  }
  recovery_.truncated_bytes = replay.truncated_bytes;
  BumpCounter(kServerJournalTruncatedBytesCounter, replay.truncated_bytes);
  recovery_.replayed_records = replay.records.size();
  RecoverFromJournal(std::move(replay.records));
}

void JobManager::RecoverFromJournal(std::vector<JournalRecord> records) {
  if (records.empty()) return;
  struct Pending {
    std::string config_text;
    uint32_t attempts = 0;
    bool terminal = false;
    uint8_t terminal_state = 0;
    std::string error;
    uint64_t num_facts = 0;
  };
  // Replay state machine. Each rule is defensive: duplicated records
  // (first submit wins, max attempt wins, last terminal wins) and orphaned
  // records (no prior submit) apply idempotently or drop, so a journal
  // mangled into reorderings still recovers without crashing.
  std::vector<std::string> order;
  std::unordered_map<std::string, Pending> pending;
  for (JournalRecord& record : records) {
    if (record.job_id.empty()) continue;
    auto it = pending.find(record.job_id);
    switch (record.type) {
      case JournalRecord::Type::kSubmitted:
        if (it == pending.end()) {
          pending[record.job_id].config_text = std::move(record.config_text);
          order.push_back(record.job_id);
        }
        break;
      case JournalRecord::Type::kStarted:
        if (it != pending.end()) {
          it->second.attempts = std::max(it->second.attempts, record.attempt);
        }
        break;
      case JournalRecord::Type::kTerminal:
        if (it != pending.end()) {
          it->second.terminal = true;
          it->second.terminal_state = record.terminal_state;
          it->second.error = std::move(record.error);
          it->second.num_facts = record.num_facts;
        }
        break;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& id : order) {
    Pending& entry = pending[id];
    auto job = std::make_unique<Job>();
    job->id = id;
    job->recovered = true;
    job->attempts = entry.attempts;
    job->token = std::make_unique<CancellationToken>();
    next_id_ = std::max(next_id_, JobIdNumber(id) + 1);

    auto parsed = JobRequest::Parse(entry.config_text);
    if (parsed.ok()) {
      job->request = std::move(parsed).value();
    } else {
      job->request.config_text = entry.config_text;
    }

    Job* raw = job.get();
    jobs_.emplace(raw->id, std::move(job));
    job_order_.push_back(raw);

    if (entry.terminal) {
      raw->state = JobStateFromJournal(entry.terminal_state);
      const bool facts_ok =
          ReadFramedRecord(FactsPathFor(options_.work_dir, id), kFactsFormat)
              .ok();
      // A done job whose facts file is missing or fails its CRC re-runs
      // below (a no-op resume through its finished manifest) instead of
      // serving a short body; other outcomes stand, claiming no facts they
      // cannot serve.
      if (facts_ok || raw->state != JobState::kDone || !parsed.ok()) {
        raw->error = std::move(entry.error);
        raw->num_facts = facts_ok ? entry.num_facts : 0;
        ++recovery_.jobs_restored;
        continue;
      }
    }
    if (!parsed.ok()) {
      // The submitted bytes no longer parse (format skew across versions):
      // fail the job descriptively instead of crashing the runner on it.
      raw->state = JobState::kFailed;
      raw->error = "recovered job config no longer parses: " +
                   parsed.status().ToString();
      PersistTerminalLocked(raw);
      ++recovery_.jobs_restored;
      continue;
    }
    // A restart grants one attempt beyond the in-process budget (the crash
    // may have been nobody's fault); a job that exceeds even that without
    // reaching terminal is crash-looping the server and gets quarantined
    // instead of a fourth chance.
    const uint32_t boot_budget =
        static_cast<uint32_t>(std::max<size_t>(options_.retry.max_attempts,
                                               1)) +
        1;
    if (!entry.terminal && raw->attempts >= boot_budget) {
      raw->state = JobState::kFailedPoisoned;
      raw->stopped_reason = StoppedReason::kNone;
      raw->error = "quarantined at boot: " + std::to_string(raw->attempts) +
                   " attempts started without reaching a terminal state "
                   "(crash loop)";
      PersistTerminalLocked(raw);
      ++recovery_.jobs_poisoned;
      BumpCounter(kServerJobsPoisonedCounter);
      continue;
    }
    // Interrupted, never started, or done with its facts lost: back on the
    // queue in submission order. A job that was mid-sweep resumes through
    // its manifest, so recovered output is byte-identical to an
    // uninterrupted run.
    raw->state = JobState::kQueued;
    queue_.push_back(raw);
    ++recovery_.jobs_recovered;
    BumpCounter(kServerJobsRecoveredCounter);
  }
}

void JobManager::JournalAppendLocked(const JournalRecord& record) {
  if (journal_ == nullptr || crashed_.load(std::memory_order_acquire)) {
    return;
  }
  const Status appended = journal_->Append(record);
  if (appended.ok()) {
    BumpCounter(kServerJournalRecordsCounter);
  } else {
    BumpCounter(kServerJournalErrorsCounter);
    return;
  }
  if (journal_->ShouldRotate()) {
    const Status rotated = journal_->Rotate(JournalSnapshotLocked());
    if (rotated.ok()) {
      BumpCounter(kServerJournalRotationsCounter);
    } else {
      // The old segment is still active and intact; compaction will be
      // retried at the next append.
      BumpCounter(kServerJournalErrorsCounter);
    }
  }
}

std::vector<JournalRecord> JobManager::JournalSnapshotLocked() const {
  // Compacted live state: per job, its submission, its attempt high-water
  // mark, and its terminal record.
  std::vector<JournalRecord> snapshot;
  snapshot.reserve(job_order_.size() * 3);
  for (const Job* job : job_order_) {
    JournalRecord submitted;
    submitted.type = JournalRecord::Type::kSubmitted;
    submitted.job_id = job->id;
    submitted.config_text = job->request.config_text;
    snapshot.push_back(std::move(submitted));
    if (job->attempts > 0) {
      JournalRecord started;
      started.type = JournalRecord::Type::kStarted;
      started.job_id = job->id;
      started.attempt = job->attempts;
      snapshot.push_back(std::move(started));
    }
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      JournalRecord terminal;
      terminal.type = JournalRecord::Type::kTerminal;
      terminal.job_id = job->id;
      terminal.terminal_state = JobStateToJournal(job->state);
      terminal.error = job->error;
      terminal.num_facts = job->num_facts;
      snapshot.push_back(std::move(terminal));
    }
  }
  return snapshot;
}

void JobManager::PersistTerminalLocked(Job* job,
                                       const std::string& facts_tsv) {
  if (crashed_.load(std::memory_order_acquire)) return;
  // The deterministic pre-terminal-flush crash point: a triggered spec
  // here means the job finished in memory but neither its facts file nor
  // its terminal record reach disk — on restart the job re-runs (fast,
  // through its manifest) exactly as after a real kill in this window.
  if (!FailPoints::Instance().Evaluate(kFailPointJournalTerminal).ok()) {
    return;
  }
  // Facts before terminal record: a kTerminal in the journal implies the
  // facts bytes were written (and, under --journal_fsync, synced with the
  // work dir), so a restored `done` job can serve them. If the facts write
  // fails we skip the terminal record too — the job simply re-runs after a
  // restart.
  const Status facts_written =
      WriteFramedRecord(FactsPathFor(options_.work_dir, job->id),
                        kFactsFormat, facts_tsv, options_.journal.fsync);
  if (!facts_written.ok()) {
    BumpCounter(kServerJournalErrorsCounter);
    return;
  }
  JournalRecord record;
  record.type = JournalRecord::Type::kTerminal;
  record.job_id = job->id;
  record.terminal_state = JobStateToJournal(job->state);
  record.error = job->error;
  record.num_facts = job->num_facts;
  JournalAppendLocked(record);
}

Result<std::string> JobManager::Submit(const std::string& config_text) {
  Counter* rejected =
      options_.metrics != nullptr
          ? options_.metrics->GetCounter(kServerJobsRejectedCounter)
          : nullptr;
  KGFD_ASSIGN_OR_RETURN(JobRequest request, JobRequest::Parse(config_text));

  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.load(std::memory_order_acquire)) {
    if (rejected != nullptr) rejected->Increment();
    return Status::FailedPrecondition("server is draining");
  }
  if (queue_.size() >= options_.max_queued) {
    if (rejected != nullptr) rejected->Increment();
    return Status::FailedPrecondition("job queue full");
  }
  auto job = std::make_unique<Job>();
  job->id = "j" + std::to_string(next_id_++);
  job->request = std::move(request);
  job->token = std::make_unique<CancellationToken>();
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  job_order_.push_back(raw);
  queue_.push_back(raw);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter(kServerJobsSubmittedCounter)->Increment();
  }
  JournalRecord record;
  record.type = JournalRecord::Type::kSubmitted;
  record.job_id = raw->id;
  record.config_text = raw->request.config_text;
  JournalAppendLocked(record);
  work_available_.notify_one();
  return raw->id;
}

JobStatus JobManager::SnapshotLocked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.error = job.error;
  status.relations_total = job.relations_total;
  status.relations_done = job.relations_done.load(std::memory_order_relaxed);
  status.num_facts = job.num_facts;
  status.stopped_reason = job.stopped_reason;
  status.runtime_seconds = job.runtime_seconds;
  status.attempts = job.attempts;
  status.recovered = job.recovered;
  return status;
}

Result<JobStatus> JobManager::GetStatus(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job: " + id);
  }
  return SnapshotLocked(*it->second);
}

Result<std::string> JobManager::FactsTsv(const std::string& id) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no such job: " + id);
    }
    const JobState state = it->second->state;
    if (state == JobState::kQueued || state == JobState::kRunning) {
      return Status::FailedPrecondition(
          "job " + id + " is " + JobStateName(state) +
          "; facts are available once it is terminal");
    }
  }
  // Terminal jobs never change their facts file, so it is read unlocked.
  return ReadFramedRecord(FactsPathFor(options_.work_dir, id), kFactsFormat);
}

Status JobManager::Cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job: " + id);
  }
  Job* job = it->second.get();
  if (job->state == JobState::kQueued) {
    // Dequeue immediately: the job never starts, never touches the model
    // or discovery counters, and is terminal the moment this returns.
    for (auto queued = queue_.begin(); queued != queue_.end(); ++queued) {
      if (*queued == job) {
        queue_.erase(queued);
        break;
      }
    }
    job->state = JobState::kCancelled;
    job->stopped_reason = StoppedReason::kCancelled;
    job->user_cancelled = true;
    PersistTerminalLocked(job);
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter(kServerJobsCompletedCounter)->Increment();
    }
    return Status::OK();
  }
  if (job->state == JobState::kRunning) {
    job->user_cancelled = true;
    if (job->token != nullptr) job->token->RequestCancel();
    return Status::OK();
  }
  return Status::OK();  // already terminal — cancellation is idempotent
}

std::vector<JobStatus> JobManager::ListJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> jobs;
  jobs.reserve(job_order_.size());
  for (const Job* job : job_order_) {
    jobs.push_back(SnapshotLocked(*job));
  }
  return jobs;
}

void JobManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.exchange(true, std::memory_order_acq_rel)) {
      // Second caller: fall through to the join below (idempotent).
    } else {
      if (options_.cancel_queued_on_drain) {
        // Queued jobs never run; the in-flight one is cancelled
        // cooperatively so it flushes its manifest before the runner
        // exits.
        for (Job* job : queue_) {
          job->state = JobState::kCancelled;
          job->stopped_reason = StoppedReason::kCancelled;
          job->error = "server shutdown before the job ran";
          PersistTerminalLocked(job);
        }
        queue_.clear();
      }
      // else: leave them queued — their kSubmitted records stay
      // non-terminal in the journal, and the next boot re-enqueues them.
      for (Job* job : job_order_) {
        if (job->state == JobState::kRunning && job->token != nullptr) {
          job->token->RequestCancel();
        }
      }
    }
    work_available_.notify_all();
    watchdog_wakeup_.notify_all();
  }
  if (runner_.joinable()) runner_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void JobManager::KillForTesting() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_.store(true, std::memory_order_release);
    draining_.store(true, std::memory_order_release);
    for (Job* job : job_order_) {
      if (job->state == JobState::kRunning && job->token != nullptr) {
        job->token->RequestCancel();
      }
    }
    work_available_.notify_all();
    watchdog_wakeup_.notify_all();
  }
  if (runner_.joinable()) runner_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void JobManager::RunnerLoop() {
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      // On drain the queue is either already cleared
      // (cancel_queued_on_drain) or deliberately left for the next boot.
      if (draining_.load(std::memory_order_acquire)) return;
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kRunning;
    }
    RunOne(job);
  }
}

void JobManager::WatchdogLoop() {
  const auto poll = std::chrono::duration<double>(
      options_.watchdog_poll_s > 0 ? options_.watchdog_poll_s : 0.05);
  const int64_t stall_ns =
      static_cast<int64_t>(options_.stall_timeout_s * 1e9);
  std::unique_lock<std::mutex> lock(mu_);
  while (!draining_.load(std::memory_order_acquire)) {
    watchdog_wakeup_.wait_for(lock, poll);
    if (draining_.load(std::memory_order_acquire)) return;
    const int64_t now = NowNs();
    for (Job* job : job_order_) {
      if (job->state != JobState::kRunning) continue;
      const int64_t beat =
          job->last_heartbeat_ns.load(std::memory_order_relaxed);
      if (beat == 0 || now - beat < stall_ns) continue;
      if (!job->stall_cancelled.exchange(true, std::memory_order_acq_rel)) {
        // The attempt is stuck: cancel cooperatively. RunOne sees the
        // stall flag and routes the outcome through the retry budget
        // instead of reporting a user cancellation.
        if (job->token != nullptr) job->token->RequestCancel();
        BumpCounter(kServerWatchdogStallsCounter);
      }
    }
  }
}

void JobManager::Heartbeat(Job* job) {
  job->last_heartbeat_ns.store(NowNs(), std::memory_order_relaxed);
}

void JobManager::RunOne(Job* job) {
  WallTimer timer;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_.load(std::memory_order_acquire)) return;
      if (draining_.load(std::memory_order_acquire)) {
        // Drain won the race between dequeue and attempt start (or hit a
        // retry boundary): terminal now, without running.
        job->state = JobState::kCancelled;
        job->stopped_reason = StoppedReason::kCancelled;
        job->error = "server shutdown before the job ran";
        job->runtime_seconds = timer.ElapsedSeconds();
        PersistTerminalLocked(job);
        BumpCounter(kServerJobsCompletedCounter);
        return;
      }
      ++job->attempts;
      // A cancelled token stays cancelled; each attempt gets a fresh one.
      job->token = std::make_unique<CancellationToken>();
      job->stall_cancelled.store(false, std::memory_order_release);
      Heartbeat(job);
      JournalRecord record;
      record.type = JournalRecord::Type::kStarted;
      record.job_id = job->id;
      record.attempt = job->attempts;
      JournalAppendLocked(record);
    }

    Result<std::string> facts = RunDiscoverJob(job);
    const Status status = facts.status();
    // Only handed to PersistTerminalLocked; a failed attempt has no facts.
    const std::string facts_tsv = facts.ok() ? std::move(facts).value() : "";

    std::unique_lock<std::mutex> lock(mu_);
    if (crashed_.load(std::memory_order_acquire)) return;
    job->last_heartbeat_ns.store(0, std::memory_order_relaxed);
    if (!status.ok()) job->num_facts = 0;
    const bool stalled =
        job->stall_cancelled.load(std::memory_order_acquire);
    const bool user_stop = job->user_cancelled ||
                           draining_.load(std::memory_order_acquire);

    // A watchdog stall surfaces as a *graceful* cancellation (OK +
    // stopped_reason=kCancelled, or a kCancelled error from a seam that
    // observed the token first) — distinguish it from a real DELETE/drain
    // by the stall flag.
    bool stall_failure = false;
    if (stalled && !user_stop) {
      stall_failure =
          (status.ok() && job->stopped_reason == StoppedReason::kCancelled) ||
          (!status.ok() && status.code() == StatusCode::kCancelled);
    }
    const bool retryable_error =
        !status.ok() && !user_stop &&
        status.code() != StatusCode::kCancelled &&
        status.code() != StatusCode::kDeadlineExceeded &&
        RetryableCode(status.code());

    if (stall_failure || retryable_error) {
      if (job->attempts <
          std::max<size_t>(options_.retry.max_attempts, 1)) {
        BumpCounter(kServerJobsRetriedCounter);
        continue;  // next attempt (fresh token; manifest resumes the sweep)
      }
      // Budget exhausted: quarantine. Plain kFailed is reserved for
      // non-retryable errors with retries disabled — a job that consumed
      // a multi-attempt budget is poisoned so operators can tell "broken
      // input" from "repeatedly stalling/flaky job".
      if (stall_failure || options_.retry.max_attempts > 1) {
        job->state = JobState::kFailedPoisoned;
        job->error =
            "poisoned after " + std::to_string(job->attempts) +
            " attempts: " +
            (stall_failure
                 ? "watchdog stall (no heartbeat for " +
                       std::to_string(options_.stall_timeout_s) + "s)"
                 : status.ToString());
        BumpCounter(kServerJobsPoisonedCounter);
      } else {
        job->state = JobState::kFailed;
        job->error = status.ToString();
      }
      job->runtime_seconds = timer.ElapsedSeconds();
      PersistTerminalLocked(job, facts_tsv);
      BumpCounter(kServerJobsCompletedCounter);
      return;
    }

    job->runtime_seconds = timer.ElapsedSeconds();
    if (!status.ok()) {
      if (status.code() == StatusCode::kCancelled) {
        job->state = JobState::kCancelled;
      } else if (status.code() == StatusCode::kDeadlineExceeded) {
        job->state = JobState::kDeadline;
      } else {
        job->state = JobState::kFailed;
      }
      job->error = status.ToString();
    } else {
      // An OK run may still have stopped early (graceful degradation):
      // facts_tsv holds the partial facts, the state records why the sweep
      // ended.
      switch (job->stopped_reason) {
        case StoppedReason::kCancelled:
          job->state = JobState::kCancelled;
          break;
        case StoppedReason::kDeadline:
          job->state = JobState::kDeadline;
          break;
        case StoppedReason::kNone:
          job->state = JobState::kDone;
          break;
      }
    }
    PersistTerminalLocked(job, facts_tsv);
    BumpCounter(kServerJobsCompletedCounter);
    return;
  }
}

Result<std::shared_ptr<JobManager::LoadedModel>> JobManager::GetOrLoadModel(
    const std::string& data_dir, const std::string& checkpoint) {
  // The storage backend is part of the cache identity: a cached ram-backed
  // model must not be served after the process switches to mmap (and vice
  // versa) — the caller asked for different storage semantics, not just
  // the same scores. Quantization needs no key component: it is a property
  // of the checkpoint file itself, and HashModelParameters mixes the
  // quantized fingerprint into the DiscoveryCache identity below.
  KGFD_ASSIGN_OR_RETURN(EmbeddingBackend backend, EmbeddingBackendFromEnv());
  const std::string key = data_dir + "\n" + checkpoint + "\n" +
                          EmbeddingBackendName(backend);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = model_cache_.find(key);
    if (it != model_cache_.end()) {
      if (options_.metrics != nullptr) {
        options_.metrics->GetCounter(kServerModelCacheHitsCounter)
            ->Increment();
      }
      return it->second;
    }
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter(kServerModelCacheMissesCounter)->Increment();
  }
  KGFD_ASSIGN_OR_RETURN(Dataset dataset, LoadDatasetDir(data_dir, data_dir));
  KGFD_ASSIGN_OR_RETURN(std::unique_ptr<Model> model, LoadModel(checkpoint));

  auto loaded = std::make_shared<LoadedModel>();
  loaded->dataset = std::make_shared<Dataset>(std::move(dataset));
  loaded->model = std::shared_ptr<Model>(std::move(model));

  // DiscoveryCache identity: the model parameters plus the graph shape —
  // the same fingerprint core/resume.h manifests pin. Two checkpoint files
  // with identical parameters share a cache; a retrained model gets a
  // fresh one.
  uint64_t fp = HashModelParameters(loaded->model.get());
  const TripleStore& kg = loaded->dataset->train();
  MixFingerprint(&fp, kg.num_entities());
  MixFingerprint(&fp, kg.num_relations());
  MixFingerprint(&fp, kg.size());
  loaded->fingerprint = fp;

  std::lock_guard<std::mutex> lock(mu_);
  auto& cache = caches_[fp];
  if (cache == nullptr) {
    cache = std::make_shared<DiscoveryCache>(options_.metrics);
  }
  loaded->cache = cache;
  model_cache_.emplace(key, loaded);
  return loaded;
}

Result<std::string> JobManager::RunDiscoverJob(Job* job) {
  KGFD_ASSIGN_OR_RETURN(
      const std::shared_ptr<LoadedModel> loaded,
      GetOrLoadModel(job->request.data_dir, job->request.checkpoint));
  const TripleStore& kg = loaded->dataset->train();
  Heartbeat(job);  // model load can be slow; it is a sign of life

  DiscoveryOptions options = job->request.discovery;
  options.metrics = options_.metrics;
  options.shared_cache = loaded->cache.get();
  options.cancel = CancelContext(
      job->token.get(), job->request.deadline_s > 0
                            ? Deadline::After(job->request.deadline_s)
                            : Deadline());
  options.on_relation_complete = [this, job](RelationCompletion&&) {
    job->relations_done.fetch_add(1, std::memory_order_relaxed);
    Heartbeat(job);
  };
  options.on_round_complete = [this, job](AdaptiveRoundCompletion&&) {
    Heartbeat(job);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->relations_total = options.relations.empty()
                               ? kg.UsedRelations().size()
                               : options.relations.size();
  }

  ResumeOptions resume;
  resume.manifest_path = options_.work_dir + "/" + job->id + ".manifest";
  // The manifest is the durable copy of the job's progress: this attempt
  // counts up from the relations an earlier attempt or boot finished. A
  // manifest this build cannot replay (one from before the log format, or
  // with a damaged header record) only costs the restart: the sweep is
  // deterministic, so starting over yields the same facts.
  const auto manifest = LoadResumeManifest(resume.manifest_path);
  job->relations_done.store(manifest.ok() ? manifest.value().done.size() : 0,
                            std::memory_order_relaxed);
  if (!manifest.ok()) std::remove(resume.manifest_path.c_str());
  KGFD_ASSIGN_OR_RETURN(
      const DiscoveryResult result,
      DiscoverFactsResumable(*loaded->model, kg, options, resume,
                             options_.pool));

  std::string tsv =
      FormatFactsTsv(result.facts, loaded->dataset->entity_vocab(),
                     loaded->dataset->relation_vocab());
  std::lock_guard<std::mutex> lock(mu_);
  job->num_facts = result.facts.size();
  job->stopped_reason = result.stopped_reason;
  return tsv;
}

}  // namespace kgfd
