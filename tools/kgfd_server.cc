/// kgfd_server: discovery-as-a-service over HTTP.
///
///   kgfd_server --port 8080 --work_dir jobs/
///
/// Exposes the job API (see src/server/discovery_service.h):
///   POST   /jobs             submit a job config (body = key = value text)
///   GET    /jobs             list jobs
///   GET    /jobs/<id>        status + progress
///   GET    /jobs/<id>/facts  discovered facts as TSV
///   DELETE /jobs/<id>        cooperative cancel
///   GET    /metrics          metrics registry text export
///   GET    /healthz          liveness (503 while draining)
///
/// Shutdown: SIGINT/SIGTERM starts a graceful drain — no new jobs are
/// admitted (503), queued jobs are cancelled, the in-flight job stops at
/// its next checkpoint and flushes its resume manifest, every accepted
/// connection finishes its response, and the process exits 0.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "kgfd.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace {

/// Process-wide token flipped by the SIGINT/SIGTERM handler; the main
/// thread watches it and starts the drain.
CancellationToken& GlobalServerCancelToken() {
  static CancellationToken token;
  return token;
}

int ServerMain(const Flags& flags) {
  const size_t port = flags.GetSize("port", 8080);
  if (port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return 1;
  }
  const std::string bind = flags.GetString("bind", "127.0.0.1");
  const std::string work_dir = flags.GetString("work_dir", "kgfd_jobs");
  const size_t threads = flags.GetSize("threads", 0);
  const int64_t max_queued = flags.GetInt("max_queued", 16);
  if (max_queued <= 0) {
    std::fprintf(stderr, "--max_queued must be positive\n");
    return 1;
  }
  const double stall_timeout_s = flags.GetDouble("job_stall_timeout_s", 0.0);
  const int64_t job_retries = flags.GetInt("job_retries", 1);
  if (stall_timeout_s < 0 || job_retries <= 0) {
    std::fprintf(stderr,
                 "--job_stall_timeout_s must be >= 0 and --job_retries "
                 "must be positive\n");
    return 1;
  }
  const int64_t journal_rotate = flags.GetInt("journal_rotate_bytes", 0);

  EnsureJobWorkDir(work_dir).AbortIfNotOk("create --work_dir");

  MetricsRegistry metrics;
  ThreadPool pool(threads);

  JobManager::Options job_options;
  job_options.work_dir = work_dir;
  job_options.max_queued = static_cast<size_t>(max_queued);
  job_options.pool = &pool;
  job_options.metrics = &metrics;
  job_options.stall_timeout_s = stall_timeout_s;
  job_options.retry.max_attempts = static_cast<size_t>(job_retries);
  if (journal_rotate > 0) {
    job_options.journal.rotate_bytes = static_cast<uint64_t>(journal_rotate);
  }
  job_options.journal.fsync = flags.GetBool("journal_fsync", false);
  job_options.cancel_queued_on_drain =
      !flags.GetBool("drain_keep_queued", false);
  JobManager jobs(std::move(job_options));

  // Recovery summary — one parseable line (server_smoke.sh contract 5 and
  // the ops runbook grep for it), plus the journal health if degraded.
  const JobManager::RecoveryInfo& recovery = jobs.recovery();
  std::printf(
      "kgfd_server recovery: records=%zu restored=%zu requeued=%zu "
      "poisoned=%zu truncated_bytes=%llu\n",
      recovery.replayed_records, recovery.jobs_restored,
      recovery.jobs_recovered, recovery.jobs_poisoned,
      static_cast<unsigned long long>(recovery.truncated_bytes));
  if (!recovery.journal_error.empty()) {
    std::printf("kgfd_server journal quarantined (%zu segments): %s\n",
                recovery.quarantined_segments,
                recovery.journal_error.c_str());
  }
  std::fflush(stdout);

  DiscoveryService service(&jobs, &metrics);
  HttpServer::Options http_options;
  http_options.bind_address = bind;
  http_options.port = static_cast<uint16_t>(port);
  http_options.pool = &pool;
  http_options.metrics = &metrics;
  HttpServer server(std::move(http_options),
                    [&service](const HttpRequest& request) {
                      return service.Handle(request);
                    });
  server.Start().AbortIfNotOk("start server");

  // Flushed line: tools/server_smoke.sh and the integration tests parse it
  // to learn the bound (possibly ephemeral) port.
  std::printf("kgfd_server listening on %s:%u\n", bind.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  CancellationToken& stop = GlobalServerCancelToken();
  while (!stop.IsCancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("kgfd_server draining\n");
  std::fflush(stdout);
  // Order matters: stop admitting + finish/flush jobs first, then stop the
  // HTTP front end so late status polls during the drain still answer.
  jobs.Shutdown();
  server.Stop();
  std::printf("kgfd_server exiting\n");
  return 0;
}

}  // namespace
}  // namespace kgfd

int main(int argc, char** argv) {
  auto flags = kgfd::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    std::fprintf(stderr,
                 "usage: kgfd_server [--port N] [--bind ADDR] "
                 "[--work_dir DIR] [--threads N] [--max_queued N] "
                 "[--embedding_backend ram|mmap] [--job_stall_timeout_s S] "
                 "[--job_retries N] [--journal_rotate_bytes N] "
                 "[--journal_fsync] [--drain_keep_queued]\n");
    return 1;
  }
  // A typo'd kernel backend should be a startup error, not an abort the
  // first time a job scores a triple.
  const kgfd::Status backend = kgfd::kernels::ValidateKernelBackendEnv();
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.ToString().c_str());
    return 1;
  }
  // --embedding_backend ram|mmap overrides KGFD_EMBEDDING_BACKEND; job
  // workers resolve the backend from the environment on every model load
  // (and key the model cache by it).
  const std::string embedding_backend =
      flags.value().GetString("embedding_backend", "");
  if (!embedding_backend.empty()) {
    setenv("KGFD_EMBEDDING_BACKEND", embedding_backend.c_str(), 1);
  }
  const kgfd::Status storage = kgfd::ValidateEmbeddingBackendEnv();
  if (!storage.ok()) {
    std::fprintf(stderr, "%s\n", storage.ToString().c_str());
    return 1;
  }
  // A typo'd KGFD_DEFAULT_STRATEGY must fail at startup, not silently
  // default every job that omits discovery.strategy to ENTITY_FREQUENCY.
  const kgfd::Status default_strategy = kgfd::ValidateDefaultStrategyEnv();
  if (!default_strategy.ok()) {
    std::fprintf(stderr, "%s\n", default_strategy.ToString().c_str());
    return 1;
  }
  const std::string failpoints =
      flags.value().GetString("failpoints", "");
  if (!failpoints.empty()) {
    kgfd::FailPoints::Instance()
        .EnableFromSpec(failpoints)
        .AbortIfNotOk("parse --failpoints");
  }
  kgfd::InstallSignalCancellation(&kgfd::GlobalServerCancelToken());
  return kgfd::ServerMain(flags.value());
}
