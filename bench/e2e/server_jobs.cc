/// The server_jobs workload: a real kgfd_server child process fed discover
/// jobs over loopback HTTP by a two-thread load generator in this process.
///
///  * Closed loop (main thread): one client submits a job, polls
///    GET /jobs/<id> every 5 ms until it is terminal, fetches its facts,
///    then submits the next. Job latency is submit -> facts fetched.
///  * Open loop (second thread): GET /jobs/<id> of the running job at 40
///    requests/s on a fixed schedule, each timed from when it was due, so a
///    stalled server also delays the requests queued behind the stall.
///
/// Job seeds come from a pool of four in a seeded order; the first use of
/// each seed is spread through the run and fills the server's
/// DiscoveryCache, repeats read from it. The pool is bounded because the
/// cache is not: every new seed adds a few hundred MB of score entries at
/// this size.
///
/// After the loop the served facts are checked against an in-process
/// DiscoverFacts per pooled seed. The traced run also replays the job
/// sequence in-process against one DiscoveryCache with spans.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/discovery_cache.h"
#include "e2e.h"
#include "obs/metrics.h"
#include "replay.h"
#include "server/http_client.h"
#include "server/job_manager.h"
#include "trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgfd {
namespace e2e {
namespace {

constexpr size_t kServerThreads = 3;
constexpr size_t kSeedPool = 4;
constexpr double kPollPeriodS = 0.005;
constexpr double kStatusPeriodS = 1.0 / 40.0;
constexpr double kJobTimeoutS = 120.0;
constexpr double kLateLimitMs = 10.0;
constexpr char kHost[] = "127.0.0.1";

/// A kgfd_server child. The destructor stops and reaps it, so no exit path
/// of the benchmark leaves a server behind; PR_SET_PDEATHSIG covers a
/// benchmark that dies outright.
class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild() { Stop(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  /// Starts `binary` with its work dir and log under `dir` and waits for
  /// it to print its listening port.
  Status Start(const std::string& binary, const std::string& dir) {
    const std::string log = dir + "/server.log";
    const std::string work_dir = dir + "/jobs";
    const std::string threads = std::to_string(kServerThreads);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return Status::IoError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) _exit(1);
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      execl(binary.c_str(), binary.c_str(), "--port", "0", "--threads",
            threads.c_str(), "--work_dir", work_dir.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    const WallTimer waited;
    while (waited.ElapsedSeconds() < 30.0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find("listening on ");
        const size_t colon = line.rfind(':');
        if (at != std::string::npos && colon != std::string::npos) {
          port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
          return Status::OK();
        }
      }
      int wstatus = 0;
      if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("kgfd_server exited during start-up; see " +
                                log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::DeadlineExceeded("kgfd_server did not start listening");
  }

  /// SIGTERM (graceful drain), SIGKILL if it is still running after 10 s;
  /// always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const WallTimer waited;
    int wstatus = 0;
    while (waitpid(pid_, &wstatus, WNOHANG) == 0) {
      if (waited.ElapsedSeconds() > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

struct Reply {
  bool ok = false;
  int status = 0;
  std::string body;
};

Reply Fetch(uint16_t port, const std::string& method,
            const std::string& target, const std::string& body = "") {
  Reply reply;
  auto response = HttpFetch(kHost, port, method, target, body);
  if (!response.ok()) return reply;
  reply.status = response.value().status_code;
  reply.ok = reply.status >= 200 && reply.status < 300;
  reply.body = std::move(response.value().body);
  return reply;
}

/// Value of `key = value` in a job status body; empty when absent.
std::string StatusField(const std::string& body, const std::string& key) {
  std::istringstream in(body);
  std::string line;
  const std::string prefix = key + " = ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return "";
}

/// Counter `name` from a GET /metrics text body; 0 when absent.
double MetricsCounter(const std::string& body, const std::string& name) {
  const std::string prefix = "counter " + name + " ";
  const size_t at = body.find(prefix);
  return at == std::string::npos
             ? 0.0
             : std::strtod(body.c_str() + at + prefix.size(), nullptr);
}

/// Job order over the seed pool: slot i is first used at job i * n / pool,
/// so cold jobs are spread through the run; every other job repeats a slot
/// already used, drawn from `seed`.
std::vector<size_t> PlanJobs(size_t n, size_t pool, uint64_t seed) {
  std::vector<size_t> plan(n);
  Rng rng(seed);
  size_t introduced = 0;
  for (size_t j = 0; j < n; ++j) {
    if (introduced < pool && j == introduced * n / pool) {
      plan[j] = introduced++;
    } else {
      plan[j] = static_cast<size_t>(rng.UniformInt(introduced));
    }
  }
  return plan;
}

struct JobRecord {
  bool started = false;
  size_t slot = 0;
  bool cold = false;
  bool done = false;
  double latency_s = 0.0;
  double run_s = 0.0;
  double submit_ms = 0.0;
  double facts_ms = 0.0;
  size_t num_facts = 0;
  std::string facts;
};

/// The open-loop status poller's samples.
struct PollerLog {
  std::vector<double> latency_ms;  // from when each request was due
  std::vector<double> late_ms;     // how late each request was sent
  size_t attempted = 0;
  size_t failed = 0;
};

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

Status RunServerWorkload(const WorkloadSpec& spec, const Args& args,
                         Report* report) {
  if (std::thread::hardware_concurrency() < 2) {
    return Status::FailedPrecondition(
        "the load generator needs two threads; this machine has one core");
  }
  const bool traced = !args.trace_path.empty();
  Tracer tracer;
  Tracer* const t = traced ? &tracer : nullptr;

  // Set-up several times: KG, model and a booted server. The last server
  // serves the run.
  std::vector<SetupTimes> setups;
  std::vector<double> totals;
  Artifacts art;
  ServerChild server;
  for (size_t k = 0; k < kSetupRuns; ++k) {
    server.Stop();
    art = Artifacts();
    const std::string dir = args.tmp_dir + "/setup" + std::to_string(k);
    SetupTimes times;
    KGFD_ASSIGN_OR_RETURN(art, RunSetup(spec, args, dir, &times));
    const WallTimer boot;
    KGFD_RETURN_NOT_OK(server.Start(args.server_binary, dir));
    totals.push_back(times.Total() + boot.ElapsedSeconds());
    setups.push_back(times);
  }
  const Dataset& dataset = *art.dataset;
  const TripleStore& kg = dataset.train();
  const uint16_t port = server.port();

  const size_t num_jobs =
      args.quick ? 5 : static_cast<size_t>(3.0 * args.seconds + 0.5);
  const size_t pool_size = std::min(kSeedPool, num_jobs);
  const std::vector<size_t> plan =
      PlanJobs(num_jobs, pool_size, DeriveSeed(args.seed, 4));
  std::vector<uint64_t> slot_seeds(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    slot_seeds[i] = DeriveSeed(args.seed, 100 + i);
  }
  const DiscoveryOptions base = BaseDiscoveryOptions(spec, kg, 0);
  auto config_text = [&](size_t slot) {
    std::ostringstream out;
    out << "data.dir = " << std::filesystem::absolute(art.data_dir).string()
        << "\nmodel.checkpoint = "
        << std::filesystem::absolute(art.checkpoint).string()
        << "\ndiscovery.strategy = " << SamplingStrategyName(base.strategy)
        << "\ndiscovery.top_n = " << base.top_n
        << "\ndiscovery.max_candidates = " << base.max_candidates
        << "\ndiscovery.seed = " << slot_seeds[slot] << "\n";
    return out.str();
  };

  // Open loop: the running job's id is published by the closed loop.
  std::mutex current_mu;
  std::string current_job;  // guarded by current_mu
  std::atomic<bool> stop_poller{false};
  PollerLog poller;
  std::thread poller_thread([&] {
    const WallTimer clock;
    for (uint64_t k = 0; !stop_poller.load(std::memory_order_relaxed); ++k) {
      const double due = static_cast<double>(k) * kStatusPeriodS;
      const double wait = due - clock.ElapsedSeconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      std::string id;
      {
        std::lock_guard<std::mutex> lock(current_mu);
        id = current_job;
      }
      if (id.empty()) continue;
      poller.late_ms.push_back(Ms(clock.ElapsedSeconds() - due));
      ScopedSpan span(t, "http.status", 0);
      const Reply reply = Fetch(port, "GET", "/jobs/" + id);
      span.End();
      poller.latency_ms.push_back(Ms(clock.ElapsedSeconds() - due));
      ++poller.attempted;
      if (!reply.ok) ++poller.failed;
    }
  });

  // Closed loop.
  std::vector<JobRecord> jobs(num_jobs);
  std::vector<bool> slot_used(pool_size, false);
  const WallTimer loop;
  for (size_t j = 0; j < num_jobs; ++j) {
    // Safety valve for a machine far slower than the one the job count was
    // sized on: the run must still end in bounded time.
    if (loop.ElapsedSeconds() > 2.0 * args.seconds) break;
    JobRecord& job = jobs[j];
    job.started = true;
    job.slot = plan[j];
    job.cold = !slot_used[job.slot];
    slot_used[job.slot] = true;
    ScopedSpan job_span(t, "job", 0, static_cast<int64_t>(j));
    const WallTimer job_timer;
    Reply submitted;
    {
      ScopedSpan span(t, "http.submit", job_span.id(), j);
      submitted = Fetch(port, "POST", "/jobs", config_text(job.slot));
    }
    job.submit_ms = Ms(job_timer.ElapsedSeconds());
    report->Op(submitted.ok, "POST /jobs: HTTP " +
                                 std::to_string(submitted.status) + " " +
                                 submitted.body);
    if (!submitted.ok) continue;
    const std::string id = submitted.body.substr(0, submitted.body.find('\n'));
    {
      std::lock_guard<std::mutex> lock(current_mu);
      current_job = id;
    }
    std::string state;
    Reply status;
    while (job_timer.ElapsedSeconds() < kJobTimeoutS) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollPeriodS));
      ScopedSpan span(t, "http.poll", job_span.id(), j);
      status = Fetch(port, "GET", "/jobs/" + id);
      span.End();
      report->Op(status.ok, "GET /jobs/" + id);
      state = StatusField(status.body, "state");
      if (status.ok && state != "queued" && state != "running") break;
    }
    {
      std::lock_guard<std::mutex> lock(current_mu);
      current_job.clear();
    }
    if (state == "queued" || state == "running") {
      Fetch(port, "DELETE", "/jobs/" + id);
    }
    job.run_s = std::strtod(StatusField(status.body, "runtime_seconds").c_str(),
                            nullptr);
    const WallTimer facts_timer;
    Reply facts;
    {
      ScopedSpan span(t, "http.facts", job_span.id(), j);
      facts = Fetch(port, "GET", "/jobs/" + id + "/facts");
    }
    job.facts_ms = Ms(facts_timer.ElapsedSeconds());
    report->Op(facts.ok, "GET /jobs/" + id + "/facts");
    job.latency_s = job_timer.ElapsedSeconds();
    job.done = state == "done" && facts.ok;
    job.facts = std::move(facts.body);
    job.num_facts = static_cast<size_t>(
        std::strtoull(StatusField(status.body, "num_facts").c_str(), nullptr,
                      10));
  }
  const double loop_wall = loop.ElapsedSeconds();
  stop_poller.store(true);
  poller_thread.join();
  report->Ops(poller.attempted, poller.failed, "open-loop GET /jobs/<id>");

  const double server_rss = PeakRssMb(server.pid());
  const Reply metrics = Fetch(port, "GET", "/metrics");
  report->Op(metrics.ok, "GET /metrics");
  server.Stop();

  // Untimed check: every served facts body must equal an in-process
  // DiscoverFacts run with the same seed. Untraced runs use no cache, so the
  // check does not lean on DiscoveryCache. Traced runs first replay the job
  // sequence with spans against one DiscoveryCache, as the server runs it,
  // then take the reference from DiscoverFacts over that (now warm) cache,
  // paired with a traced replay over the same cache to measure the tracing
  // overhead.
  MetricsRegistry registry;
  ThreadPool pool(args.threads);
  pool.AttachMetrics(traced ? &registry : nullptr);
  const Counter* helped = registry.GetCounter(kThreadPoolTasksHelped);
  DiscoveryCache cache;
  std::vector<Result<std::vector<DiscoveredFact>>> replayed;
  for (size_t j = 0; traced && j < num_jobs; ++j) {
    DiscoveryOptions options =
        BaseDiscoveryOptions(spec, kg, slot_seeds[plan[j]]);
    options.shared_cache = &cache;
    replayed.push_back(TracedSweep(*art.model, kg, options, &pool, &tracer,
                                   static_cast<int64_t>(j)));
  }
  Tracer pair_tracer;
  std::vector<double> untraced_walls, traced_walls, helped_per_run;
  std::vector<std::vector<DiscoveredFact>> reference(pool_size);
  for (size_t slot = 0; slot < pool_size; ++slot) {
    DiscoveryOptions options = BaseDiscoveryOptions(spec, kg, slot_seeds[slot]);
    if (traced) options.shared_cache = &cache;
    const uint64_t helped_before = helped->value();
    WallTimer timer;
    auto result = DiscoverFacts(*art.model, kg, options, &pool);
    untraced_walls.push_back(timer.ElapsedSeconds());
    helped_per_run.push_back(
        static_cast<double>(helped->value() - helped_before));
    if (!result.ok()) return result.status();
    reference[slot] = std::move(result.value().facts);
    report->Digest(std::string(spec.name) + "/seed" + std::to_string(slot),
                   FactsTsv(reference[slot], dataset));
    if (!traced) continue;
    timer.Restart();
    auto replay = TracedSweep(*art.model, kg, options, &pool, &pair_tracer,
                              static_cast<int64_t>(slot));
    traced_walls.push_back(timer.ElapsedSeconds());
    report->Op(replay.ok() && SameFacts(replay.value(), reference[slot]),
               "warm traced replay facts differ from DiscoverFacts");
  }
  for (size_t j = 0; j < replayed.size(); ++j) {
    report->Op(replayed[j].ok() &&
                   SameFacts(replayed[j].value(), reference[plan[j]]),
               "traced replay of job " + std::to_string(j) +
                   " differs from DiscoverFacts");
  }
  const std::string spot =
      SpotCheckFacts(reference[0], *art.model, kg, base.top_n, 64);
  report->Op(spot.empty(), spot);
  std::vector<std::string> reference_tsv;
  for (const auto& facts : reference) {
    reference_tsv.push_back(FactsTsv(facts, dataset));
  }
  size_t total_facts = 0;
  size_t started = 0;
  std::vector<double> latency, cold, warm, run, overhead_ms;
  std::vector<double> submit_ms, facts_ms;
  for (size_t j = 0; j < num_jobs; ++j) {
    const JobRecord& job = jobs[j];
    if (!job.started) continue;
    ++started;
    const bool ok = job.done && job.facts == reference_tsv[job.slot];
    report->Op(ok, "job " + std::to_string(j) +
                       (job.done ? " served facts differ from DiscoverFacts"
                                 : " did not finish as done"));
    if (!job.done) continue;
    total_facts += job.num_facts;
    latency.push_back(job.latency_s);
    (job.cold ? cold : warm).push_back(job.latency_s);
    run.push_back(job.run_s);
    overhead_ms.push_back(Ms(job.latency_s - job.run_s));
    submit_ms.push_back(job.submit_ms);
    facts_ms.push_back(job.facts_ms);
  }

  const size_t n = latency.size();
  const double late_p99 = Percentile(poller.late_ms, 0.99);
  report->Metric("facts_per_hour",
                 static_cast<double>(total_facts) / loop_wall * 3600.0,
                 "facts/h", n);
  report->Metric("job_p50_s", Percentile(latency, 0.5), "s", n);
  report->Metric("job_p90_s", Percentile(latency, 0.9), "s", n);
  report->Metric("status_p50_ms", Percentile(poller.latency_ms, 0.5), "ms",
                 poller.latency_ms.size());
  if (late_p99 > kLateLimitMs) {
    report->Info("status_p50_ms unresolved: generator.late_p99_ms over " +
                 std::to_string(kLateLimitMs));
  }
  report->Metric("generator.late_p99_ms", late_p99, "ms",
                 poller.late_ms.size());
  report->Metric("peak_rss_mb", server_rss, "MB", 1);
  report->Metric("setup_s", Percentile(totals, 0.5), "s", totals.size());
  report->Metric("http.submit_ms", Percentile(submit_ms, 0.5), "ms", n);
  report->Metric("http.status_p99_ms", Percentile(poller.latency_ms, 0.99),
                 "ms", poller.latency_ms.size());
  report->Metric("http.facts_ms", Percentile(facts_ms, 0.5), "ms", n);
  report->Metric("job.run_s", Percentile(run, 0.5), "s", n);
  report->Metric("job.overhead_ms", Percentile(overhead_ms, 0.5), "ms", n);
  report->Metric("job.cold_s", Percentile(cold, 0.5), "s", cold.size());
  report->Metric("job.warm_s", Percentile(warm, 0.5), "s", warm.size());
  const double hits = MetricsCounter(metrics.body, kSharedScoresHitsCounter);
  const double misses =
      MetricsCounter(metrics.body, kSharedScoresMissesCounter);
  report->Metric("server.shared_scores.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", n);
  const double model_hits =
      MetricsCounter(metrics.body, kServerModelCacheHitsCounter);
  const double model_misses =
      MetricsCounter(metrics.body, kServerModelCacheMissesCounter);
  report->Metric("server.model_cache.hit_ratio",
                 model_hits + model_misses > 0
                     ? model_hits / (model_hits + model_misses)
                     : 0.0,
                 "ratio", n);
  report->Metric(
      "server.journal.records_per_job",
      MetricsCounter(metrics.body, kServerJournalRecordsCounter) /
          static_cast<double>(std::max<size_t>(started, 1)),
      "count", started);
  if (!traced) return Status::OK();

  std::vector<Span> spans = tracer.Collect();
  ReportReplayLayers(spans, kg.num_entities(), args.threads, report);
  report->Metric("discovery_cache.resident_mb",
                 static_cast<double>(cache.num_score_entries()) *
                     static_cast<double>(kg.num_entities()) * 9.0 * 1e-6,
                 "MB", 1);
  report->Metric("pool.tasks_helped", Percentile(helped_per_run, 0.5), "count",
                 helped_per_run.size());
  report->Metric("trace.overhead_ratio",
                 Percentile(traced_walls, 0.5) /
                         Percentile(untraced_walls, 0.5) -
                     1.0,
                 "ratio", traced_walls.size());
  const std::vector<Span> pair_spans = pair_tracer.Collect();
  spans.insert(spans.end(), pair_spans.begin(), pair_spans.end());
  KGFD_RETURN_NOT_OK(WriteSpans(args.trace_path, spans));
  ReportSetupLayers(setups, report);
  return Status::OK();
}

}  // namespace e2e
}  // namespace kgfd
