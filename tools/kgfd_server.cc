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
#include <string>
#include <thread>

#include "kgfd.h"
#include "startup_flags.h"
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
  const std::string bind = flags.GetString("bind", "127.0.0.1");
  const size_t threads = flags.GetSize("threads", 0);
  // The JobManager's own defaults are the flags' defaults.
  JobManager::Options job_options;
  job_options.work_dir = flags.GetString("work_dir", "kgfd_jobs");
  job_options.max_queued = flags.GetSize("max_queued", job_options.max_queued);
  job_options.stall_timeout_s =
      flags.GetDouble("job_stall_timeout_s", job_options.stall_timeout_s);
  job_options.retry.max_attempts =
      flags.GetSize("job_retries", job_options.retry.max_attempts);
  // 0 keeps the journal's default segment size.
  const uint64_t journal_rotate = flags.GetUint64("journal_rotate_bytes", 0);
  if (journal_rotate > 0) job_options.journal.rotate_bytes = journal_rotate;
  job_options.journal.fsync = flags.GetBool("journal_fsync", false);
  job_options.cancel_queued_on_drain =
      !flags.GetBool("drain_keep_queued", false);
  flags.config().CheckAllRead().AbortIfNotOk("command line");
  if (port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return 1;
  }
  if (job_options.max_queued == 0 || job_options.stall_timeout_s < 0 ||
      job_options.retry.max_attempts == 0) {
    std::fprintf(stderr,
                 "--max_queued and --job_retries must be positive and "
                 "--job_stall_timeout_s must be >= 0\n");
    return 1;
  }
  EnsureJobWorkDir(job_options.work_dir).AbortIfNotOk("create --work_dir");

  MetricsRegistry metrics;
  ThreadPool pool(threads);
  job_options.pool = &pool;
  job_options.metrics = &metrics;
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
  const kgfd::Status startup = kgfd::ApplyStartupFlags(flags.value());
  if (!startup.ok()) {
    std::fprintf(stderr, "%s\n", startup.ToString().c_str());
    return 1;
  }
  kgfd::InstallSignalCancellation(&kgfd::GlobalServerCancelToken());
  return kgfd::ServerMain(flags.value());
}
