#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "core/report.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/trainer.h"
#include "obs/metrics.h"
#include "server/discovery_service.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/job_manager.h"
#include "util/config_file.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// On-disk fixture shared by every test in this binary: a synthetic
/// dataset directory plus a trained checkpoint — exactly what a client
/// would point a discover job at.
struct DiskFixture {
  std::string root;
  std::string data_dir;
  std::string checkpoint;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Model> model;
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
    c.name = "serve";
    c.num_entities = 50;
    c.num_relations = 5;
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 13;
    f->dataset = std::make_unique<Dataset>(
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset"));
    SaveDatasetDir(*f->dataset, f->data_dir).AbortIfNotOk("save dataset");

    ModelConfig mc;
    mc.num_entities = f->dataset->num_entities();
    mc.num_relations = f->dataset->num_relations();
    mc.embedding_dim = 10;
    TrainerConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 3;
    f->model =
        std::move(TrainModel(ModelKind::kDistMult, mc, f->dataset->train(), tc))
            .ValueOrDie("model");
    SaveModel(f->model.get(), mc, f->checkpoint).AbortIfNotOk("save model");

    // Reload both artifacts from disk so the fixture sees exactly the
    // entity/relation IDs the server (and kgfd_cli) will see — the vocab
    // order of a loaded dataset is the file order, not generation order.
    f->dataset = std::make_unique<Dataset>(
        std::move(LoadDatasetDir(f->data_dir, f->data_dir))
            .ValueOrDie("reload dataset"));
    f->model = std::move(LoadModel(f->checkpoint)).ValueOrDie("reload model");
    return f;
  }();
  return *fixture;
}

constexpr char kHost[] = "127.0.0.1";

/// One live server stack on an ephemeral loopback port.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    work_dir_ = ScratchPath("jobs");
    std::filesystem::remove_all(work_dir_);
  }

  void StartServer(size_t max_queued = 16) {
    pool_ = std::make_unique<ThreadPool>(4);
    metrics_ = std::make_unique<MetricsRegistry>();
    JobManager::Options job_options;
    job_options.work_dir = work_dir_;
    job_options.max_queued = max_queued;
    job_options.pool = pool_.get();
    job_options.metrics = metrics_.get();
    jobs_ = std::make_unique<JobManager>(std::move(job_options));
    service_ = std::make_unique<DiscoveryService>(jobs_.get(), metrics_.get());
    HttpServer::Options http_options;
    http_options.pool = pool_.get();
    http_options.metrics = metrics_.get();
    server_ = std::make_unique<HttpServer>(
        std::move(http_options),
        [this](const HttpRequest& r) { return service_->Handle(r); });
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (jobs_ != nullptr) jobs_->Shutdown();
    FailPoints::Instance().Reset();
    std::filesystem::remove_all(work_dir_);
  }

  /// Minimal discover-job config against the shared on-disk fixture.
  std::string JobConfig(const std::string& extra = "") const {
    const DiskFixture& f = SharedDiskFixture();
    return "data.dir = " + f.data_dir + "\n" +
           "model.checkpoint = " + f.checkpoint + "\n" +
           "discovery.top_n = 25\n" + "discovery.max_candidates = 60\n" +
           extra;
  }

  /// POSTs a job and returns its id (asserting 200).
  std::string SubmitJob(const std::string& config) {
    auto response = HttpFetch(kHost, port_, "POST", "/jobs", config);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200) << response.value().body;
    std::string id = response.value().body;
    while (!id.empty() && id.back() == '\n') id.pop_back();
    return id;
  }

  /// Polls GET /jobs/<id> until the job reaches a terminal state.
  std::string AwaitTerminal(const std::string& id, double timeout_s = 30.0) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < give_up) {
      const std::string state = JobField(id, "state");
      if (state != "queued" && state != "running") return state;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return "timeout";
  }

  /// Reads one key from the status body (config-grammar text).
  std::string JobField(const std::string& id, const std::string& key) {
    auto response = HttpGet(kHost, port_, "/jobs/" + id);
    if (!response.ok() || response.value().status_code != 200) return "";
    auto config = ConfigFile::Parse(response.value().body);
    if (!config.ok()) return "";
    return config.value().GetString(key, "");
  }

  /// Reads one counter from the GET /metrics text export.
  uint64_t MetricsCounter(const std::string& name) {
    auto response = HttpGet(kHost, port_, "/metrics");
    EXPECT_TRUE(response.ok());
    const std::string needle = "counter " + name + " ";
    const size_t at = response.value().body.find(needle);
    if (at == std::string::npos) return 0;
    return std::stoull(response.value().body.substr(at + needle.size()));
  }

  std::string work_dir_;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<JobManager> jobs_;
  std::unique_ptr<DiscoveryService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, SubmitStatusFactsRoundTripMatchesDirectDiscovery) {
  StartServer();
  const std::string id = SubmitJob(JobConfig());
  EXPECT_EQ(AwaitTerminal(id), "done");

  auto facts = HttpGet(kHost, port_, "/jobs/" + id + "/facts");
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts.value().status_code, 200);

  // The served bytes must equal a direct library run with the same options
  // — the same FormatFactsTsv bytes `kgfd_cli discover --out` writes
  // (tools/server_smoke.sh proves the real-binary equality in CI).
  const DiskFixture& f = SharedDiskFixture();
  DiscoveryOptions options;
  options.top_n = 25;
  options.max_candidates = 60;
  // The server resolves its default strategy from KGFD_DEFAULT_STRATEGY;
  // the direct run must do the same or the ADAPTIVE CI leg diverges here.
  options.strategy = DefaultSamplingStrategy();
  const auto direct = DiscoverFacts(*f.model, f.dataset->train(), options);
  ASSERT_TRUE(direct.ok());
  const std::string expected =
      FormatFactsTsv(direct.value().facts, f.dataset->entity_vocab(),
                     f.dataset->relation_vocab());
  EXPECT_EQ(facts.value().body, expected);
  EXPECT_FALSE(expected.empty());

  // Progress accounting reached the total.
  EXPECT_EQ(JobField(id, "relations_done"), JobField(id, "relations_total"));
}

TEST_F(ServerTest, SecondIdenticalJobIsServedFromSharedCaches) {
  StartServer();
  const std::string first = SubmitJob(JobConfig());
  ASSERT_EQ(AwaitTerminal(first), "done");
  const uint64_t misses_after_first =
      MetricsCounter("discovery.shared_scores.misses");
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_EQ(MetricsCounter("discovery.shared_scores.hits"), 0u);
  EXPECT_EQ(MetricsCounter("server.model_cache.misses"), 1u);

  const std::string second = SubmitJob(JobConfig());
  ASSERT_EQ(AwaitTerminal(second), "done");

  // Same model + KG + options: the rerun is fully cache-served — every
  // side-score lookup hits, no new misses, the model loads from memory.
  EXPECT_EQ(MetricsCounter("discovery.shared_scores.hits"),
            misses_after_first);
  EXPECT_EQ(MetricsCounter("discovery.shared_scores.misses"),
            misses_after_first);
  EXPECT_GE(MetricsCounter("discovery.shared_weights.hits"), 1u);
  EXPECT_EQ(MetricsCounter("server.model_cache.hits"), 1u);
  EXPECT_EQ(MetricsCounter("server.model_cache.misses"), 1u);

  // And byte-identical output.
  auto facts1 = HttpGet(kHost, port_, "/jobs/" + first + "/facts");
  auto facts2 = HttpGet(kHost, port_, "/jobs/" + second + "/facts");
  ASSERT_TRUE(facts1.ok() && facts2.ok());
  EXPECT_EQ(facts1.value().body, facts2.value().body);
}

TEST_F(ServerTest, ChangingEmbeddingBackendMissesTheModelCache) {
  // Regression: the model cache key must include the storage backend. It
  // used to be data_dir+checkpoint only, so a server whose
  // KGFD_EMBEDDING_BACKEND changed between requests would happily serve a
  // model loaded under the old backend.
  const char* saved = std::getenv("KGFD_EMBEDDING_BACKEND");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("KGFD_EMBEDDING_BACKEND");

  StartServer();
  const std::string first = SubmitJob(JobConfig());
  ASSERT_EQ(AwaitTerminal(first), "done");
  EXPECT_EQ(MetricsCounter("server.model_cache.misses"), 1u);

  setenv("KGFD_EMBEDDING_BACKEND", "mmap", 1);
  const std::string second = SubmitJob(JobConfig());
  const std::string state = AwaitTerminal(second);
  if (saved != nullptr) {
    setenv("KGFD_EMBEDDING_BACKEND", restore.c_str(), 1);
  } else {
    unsetenv("KGFD_EMBEDDING_BACKEND");
  }
  ASSERT_EQ(state, "done");

  // Different backend: a fresh load (miss), not a cache hit...
  EXPECT_EQ(MetricsCounter("server.model_cache.misses"), 2u);
  EXPECT_EQ(MetricsCounter("server.model_cache.hits"), 0u);
  // ...serving byte-identical facts — the backend stores the same floats.
  auto facts1 = HttpGet(kHost, port_, "/jobs/" + first + "/facts");
  auto facts2 = HttpGet(kHost, port_, "/jobs/" + second + "/facts");
  ASSERT_TRUE(facts1.ok() && facts2.ok());
  EXPECT_EQ(facts1.value().body, facts2.value().body);
  EXPECT_FALSE(facts1.value().body.empty());
}

TEST_F(ServerTest, CancelMidJobKeepsPartialFactsAndManifest) {
  StartServer();
  // Slow the sweep so the cancel lands mid-job (PR4 invariant: completed
  // relations survive, the manifest on disk stays valid).
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(150)")
                  .ok());
  const std::string id = SubmitJob(JobConfig());

  // Wait for at least one relation to finish, then cancel.
  for (int i = 0; i < 500; ++i) {
    const std::string done = JobField(id, "relations_done");
    if (!done.empty() && done != "0") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto cancel = HttpFetch(kHost, port_, "DELETE", "/jobs/" + id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel.value().status_code, 200);

  EXPECT_EQ(AwaitTerminal(id), "cancelled");
  EXPECT_EQ(JobField(id, "stopped_reason"), "cancelled");

  // Partial facts are served, not an error.
  auto facts = HttpGet(kHost, port_, "/jobs/" + id + "/facts");
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(facts.value().status_code, 200);

  // The per-job resume manifest survived the cancellation.
  EXPECT_TRUE(
      std::filesystem::exists(work_dir_ + "/" + id + ".manifest"));
}

TEST_F(ServerTest, ShutdownDrainsInFlightJobAndRefusesNewWork) {
  StartServer();
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(100)")
                  .ok());
  const std::string running = SubmitJob(JobConfig());
  const std::string queued = SubmitJob(JobConfig());

  // Wait until the first job is actually running, then drain.
  for (int i = 0; i < 500 && JobField(running, "state") != "running"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  jobs_->Shutdown();  // what SIGTERM triggers in kgfd_server

  // The in-flight job terminated cooperatively with its manifest flushed;
  // the queued one never ran.
  const std::string state = JobField(running, "state");
  EXPECT_TRUE(state == "cancelled" || state == "done") << state;
  EXPECT_EQ(JobField(queued, "state"), "cancelled");
  EXPECT_TRUE(
      std::filesystem::exists(work_dir_ + "/" + running + ".manifest"));

  // The HTTP front end still answers, but sheds new work: 503 from both
  // the health probe and submissions.
  auto health = HttpGet(kHost, port_, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 503);
  auto submit = HttpFetch(kHost, port_, "POST", "/jobs", JobConfig());
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.value().status_code, 503);
}

TEST_F(ServerTest, FullQueueShedsLoadWith429) {
  StartServer(/*max_queued=*/1);
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(200)")
                  .ok());
  // First job starts running (leaves the queue), second occupies the one
  // queue slot; the third must be rejected with 429.
  const std::string first = SubmitJob(JobConfig());
  for (int i = 0; i < 500 && JobField(first, "state") != "running"; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  SubmitJob(JobConfig());
  auto overflow = HttpFetch(kHost, port_, "POST", "/jobs", JobConfig());
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(overflow.value().status_code, 429);
  EXPECT_NE(overflow.value().body.find("queue full"), std::string::npos);
  EXPECT_GE(MetricsCounter("server.jobs.rejected"), 1u);
}

TEST_F(ServerTest, PerJobDeadlineStopsTheSweep) {
  StartServer();
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(300)")
                  .ok());
  const std::string id = SubmitJob(JobConfig("deadline_s = 0.2\n"));
  EXPECT_EQ(AwaitTerminal(id), "deadline");
  EXPECT_EQ(JobField(id, "stopped_reason"), "deadline");
  // Deadline is graceful degradation: partial facts are still served.
  auto facts = HttpGet(kHost, port_, "/jobs/" + id + "/facts");
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(facts.value().status_code, 200);
}

TEST_F(ServerTest, SeedPastInt64RunsUnclampedAndPastUint64IsRejected) {
  StartServer();
  // 2^63 is a valid uint64 seed: the job runs with exactly that seed (not
  // 2^63 - 1, not a 400), so its facts equal a direct run's.
  const std::string id =
      SubmitJob(JobConfig("discovery.seed = 9223372036854775808\n"));
  ASSERT_EQ(AwaitTerminal(id), "done");
  auto facts = HttpGet(kHost, port_, "/jobs/" + id + "/facts");
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts.value().status_code, 200);
  const DiskFixture& f = SharedDiskFixture();
  DiscoveryOptions options;
  options.top_n = 25;
  options.max_candidates = 60;
  options.strategy = DefaultSamplingStrategy();
  options.seed = uint64_t{1} << 63;
  const auto direct = DiscoverFacts(*f.model, f.dataset->train(), options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(facts.value().body,
            FormatFactsTsv(direct.value().facts, f.dataset->entity_vocab(),
                           f.dataset->relation_vocab()));

  // 2^64 does not fit: a 400 naming the key, not a clamp to 2^64 - 1.
  auto response =
      HttpFetch(kHost, port_, "POST", "/jobs",
                JobConfig("discovery.seed = 18446744073709551616\n"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status_code, 400);
  EXPECT_NE(response.value().body.find("discovery.seed"), std::string::npos)
      << response.value().body;
}

TEST_F(ServerTest, ApiErrorsUseTheRightStatusCodes) {
  StartServer();
  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointDiscoveryRelation, "delay(100)")
                  .ok());

  auto missing = HttpGet(kHost, port_, "/jobs/zzz");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status_code, 404);

  auto bad_submit = HttpFetch(kHost, port_, "POST", "/jobs", "nonsense");
  ASSERT_TRUE(bad_submit.ok());
  EXPECT_EQ(bad_submit.value().status_code, 400);

  auto bad_method = HttpFetch(kHost, port_, "PUT", "/jobs", "");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method.value().status_code, 405);
  EXPECT_EQ(bad_method.value().headers.at("allow"), "GET, POST");

  auto unknown_path = HttpGet(kHost, port_, "/nope");
  ASSERT_TRUE(unknown_path.ok());
  EXPECT_EQ(unknown_path.value().status_code, 404);

  // Facts of a non-terminal job: 409, try again later.
  const std::string id = SubmitJob(JobConfig());
  auto early = HttpGet(kHost, port_, "/jobs/" + id + "/facts");
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early.value().status_code, 409);

  // The job list names the job.
  auto list = HttpGet(kHost, port_, "/jobs");
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list.value().body.find(id), std::string::npos);
}

/// Raw loopback client for the timeout tests below (HttpClient cannot
/// model a misbehaving peer). Optionally shrinks SO_RCVBUF before connect
/// so the server's send path back-pressures within a few KB.
int ConnectRawClient(uint16_t port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(HttpTimeoutTest, StalledRequestBodyGetsA408) {
  ThreadPool pool(2);
  MetricsRegistry metrics;
  HttpServer::Options options;
  options.pool = &pool;
  options.metrics = &metrics;
  options.receive_timeout_s = 0.2;
  HttpServer server(std::move(options), [](const HttpRequest&) {
    return TextResponse(200, "ok");
  });
  ASSERT_TRUE(server.Start().ok());

  // Send the headers plus a fraction of the promised body, then go silent:
  // the server must not hold the worker forever — it answers a descriptive
  // 408 and closes.
  const int fd = ConnectRawClient(server.port());
  ASSERT_GE(fd, 0);
  const std::string partial =
      "POST /jobs HTTP/1.1\r\ncontent-length: 1000\r\n\r\nonly a few bytes";
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_NE(response.find("timed out"), std::string::npos) << response;
  EXPECT_EQ(metrics.GetCounter(kServerRecvTimeoutsCounter)->value(), 1u);
  server.Stop();
}

TEST(HttpTimeoutTest, SlowLorisReaderCannotPinAConnectionWorker) {
  ThreadPool pool(2);
  MetricsRegistry metrics;
  HttpServer::Options options;
  options.pool = &pool;
  options.metrics = &metrics;
  options.send_timeout_s = 0.3;
  options.send_buffer_bytes = 8 * 1024;  // back-pressure after a few KB
  const std::string big(4u << 20, 'x');
  HttpServer server(std::move(options), [&big](const HttpRequest&) {
    return TextResponse(200, big);
  });
  ASSERT_TRUE(server.Start().ok());

  // Ask for a multi-MB response and then never read a byte of it. With the
  // kernel buffers shrunk on both ends, SendAll jams long before the body
  // fits in flight; SO_SNDTIMEO must unblock the worker.
  const int fd = ConnectRawClient(server.port(), /*rcvbuf_bytes=*/4 * 1024);
  ASSERT_GE(fd, 0);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (metrics.GetCounter(kServerSendTimeoutsCounter)->value() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(metrics.GetCounter(kServerSendTimeoutsCounter)->value(), 1u);
  // The worker was released, so a graceful Stop() cannot hang on us.
  server.Stop();
  ::close(fd);
}

TEST_F(ServerTest, RunKindPostIs400NamingKgfdCliRun) {
  StartServer();
  auto response = HttpFetch(kHost, port_, "POST", "/jobs",
                            "job.kind = run\n"
                            "dataset.preset = FB15K-237\n"
                            "dataset.scale = 250\n"
                            "model.type = DistMult\n"
                            "model.dim = 8\n"
                            "train.epochs = 1\n"
                            "eval.enabled = false\n"
                            "discovery.top_n = 10\n"
                            "discovery.max_candidates = 20\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, 400);
  EXPECT_NE(response.value().body.find("kgfd_cli run"), std::string::npos)
      << response.value().body;
  // Refused at the door: no job was created.
  auto listed = HttpGet(kHost, port_, "/jobs");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().body, "");
}

}  // namespace
}  // namespace kgfd
