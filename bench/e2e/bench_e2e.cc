/// bench_e2e: the repository's end-to-end benchmark.
///
///   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace PATH]
///             [--threads N] [--tmp_dir DIR] [--server PATH] [--quick]
///
/// Runs one workload (see Workloads() and README.md) in this process and
/// prints every metric as `<workload> <metric> <value> <unit> n=<samples>`,
/// the facts digests as `<workload> digest <key> <crc32> <bytes>`, and ends
/// with `<workload> result attempted=<ops> failed=<ops>`. Without --trace it
/// measures the end-to-end metrics; with --trace it replays the workload
/// through benchmark-side spans, writes them to PATH and prints the
/// per-layer metrics. bench/e2e/run.py builds this binary and drives it.
///
/// Exit status: 0 when the run completed (failed operations are reported,
/// not fatal), 1 when it could not complete (set-up failed, for one), 2 on
/// bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/report.h"
#include "e2e.h"
#include "kg/io.h"
#include "kg/synthetic.h"
#include "kge/checkpoint.h"
#include "kge/kernels.h"
#include "kge/trainer.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/timer.h"

namespace kgfd {
namespace e2e {

namespace {

// One epoch: set-up runs kSetupRuns times per benchmark run (its median is
// setup_s), and discovery cost does not depend on how well trained the
// model is.
constexpr size_t kEpochs = 1;
constexpr size_t kTopN = 500;
// Each workload's KG and model are fixed, as the paper's datasets and
// trained models are; --seed drives Algorithm 1's sampling and the server's
// job mix. Seed-dependent KGs and models would vary the number of facts
// found by several percent between seeds, burying the timing signal.
constexpr uint64_t kKgSeed = 42;
constexpr uint64_t kTrainSeed = 7;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists is recorded in README.md; in short:
  //  paper_ef500    the paper's operating point; ranking dominates.
  //  budget_ef8k    a Fig 10 budget where rank counting is ~90% of work.
  //  faithful_ct500 weight recomputation dominates; bypasses ranking.
  //  server_jobs    the only workload through kgfd_server and its caches.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"paper_ef500", false, 1.0, SamplingStrategy::kEntityFrequency, 500, 0},
      {"budget_ef8k", false, 1.0, SamplingStrategy::kEntityFrequency, 8000,
       16},
      {"faithful_ct500", false, 1.0, SamplingStrategy::kClusteringTriangles,
       500, 32},
      {"server_jobs", true, 2.0, SamplingStrategy::kEntityFrequency, 50, 0},
  };
  return kWorkloads;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  std::printf("%s %s %.17g %s n=%zu\n", workload_.c_str(), name.c_str(),
              value, unit.c_str(), samples);
  std::fflush(stdout);
}

void Report::Digest(const std::string& key, const std::string& facts_tsv) {
  std::printf("%s digest %s %08" PRIx32 " %zu\n", workload_.c_str(),
              key.c_str(), Crc32(facts_tsv), facts_tsv.size());
}

void Report::Info(const std::string& text) {
  std::printf("%s info %s\n", workload_.c_str(), text.c_str());
}

void Report::Op(bool ok, const std::string& what) {
  Ops(1, ok ? 0 : 1, what);
}

void Report::Ops(size_t attempted, size_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "bench_e2e %s: %zu failed operation(s): %s\n",
                 workload_.c_str(), failed, what.c_str());
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  // 63 bits: job configs parse seeds as signed 64-bit integers.
  return (z ^ (z >> 31)) >> 1;
}

double PeakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Result<Artifacts> RunSetup(const WorkloadSpec& spec, const Args& args,
                           const std::string& dir, SetupTimes* times) {
  Artifacts art;
  art.data_dir = dir + "/data";
  art.checkpoint = dir + "/model.bin";
  std::error_code ec;
  std::filesystem::create_directories(art.data_dir, ec);
  if (ec) return Status::IoError("cannot create " + art.data_dir);

  WallTimer timer;
  KGFD_ASSIGN_OR_RETURN(
      Dataset generated,
      GenerateSyntheticDataset(
          Fb15k237Config(args.quick ? 40.0 : spec.scale, kKgSeed)));
  // Dense ids get stable names for the TSV files, as kgfd_cli generate does.
  for (size_t e = 0; e < generated.num_entities(); ++e) {
    generated.entity_vocab().AddOrGet(
        std::string("e").append(std::to_string(e)));
  }
  for (size_t r = 0; r < generated.num_relations(); ++r) {
    generated.relation_vocab().AddOrGet(
        std::string("r").append(std::to_string(r)));
  }
  times->generate_s = timer.ElapsedSeconds();

  timer.Restart();
  KGFD_RETURN_NOT_OK(SaveDatasetDir(generated, art.data_dir));
  times->save_s = timer.ElapsedSeconds();

  // Train on the dataset as loaded back, like kgfd_cli train: loading may
  // renumber entities, and the server loads the same directory.
  timer.Restart();
  KGFD_ASSIGN_OR_RETURN(Dataset loaded,
                        LoadDatasetDir(art.data_dir, art.data_dir));
  times->kg_load_s = timer.ElapsedSeconds();
  art.dataset = std::make_unique<Dataset>(std::move(loaded));

  ModelConfig model_config;
  model_config.num_entities = art.dataset->num_entities();
  model_config.num_relations = art.dataset->num_relations();
  model_config.embedding_dim = kEmbeddingDim;
  TrainerConfig trainer;
  trainer.epochs = kEpochs;
  trainer.seed = kTrainSeed;
  timer.Restart();
  KGFD_ASSIGN_OR_RETURN(std::unique_ptr<Model> trained,
                        TrainModel(ModelKind::kTransE, model_config,
                                   art.dataset->train(), trainer));
  times->train_s = timer.ElapsedSeconds();

  timer.Restart();
  KGFD_RETURN_NOT_OK(SaveModel(trained.get(), model_config, art.checkpoint));
  times->save_s += timer.ElapsedSeconds();
  trained.reset();

  timer.Restart();
  KGFD_ASSIGN_OR_RETURN(art.model, LoadModel(art.checkpoint));
  times->checkpoint_load_s = timer.ElapsedSeconds();
  return art;
}

void ReportSetupLayers(const std::vector<SetupTimes>& runs, Report* report) {
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : runs) v.push_back(s.*field);
    return Percentile(v, 0.5);
  };
  const size_t n = runs.size();
  report->Metric("setup.generate_s", median(&SetupTimes::generate_s), "s", n);
  report->Metric("setup.train_s", median(&SetupTimes::train_s), "s", n);
  report->Metric("setup.save_s", median(&SetupTimes::save_s), "s", n);
  report->Metric("kg.load_s", median(&SetupTimes::kg_load_s), "s", n);
  report->Metric("checkpoint.load_s", median(&SetupTimes::checkpoint_load_s),
                 "s", n);
}

DiscoveryOptions BaseDiscoveryOptions(const WorkloadSpec& spec,
                                      const TripleStore& kg, uint64_t seed) {
  DiscoveryOptions options;
  options.top_n = kTopN;
  options.max_candidates = spec.max_candidates;
  options.strategy = spec.strategy;
  options.seed = seed;
  if (spec.num_relations > 0) {
    const std::vector<RelationId> used = kg.UsedRelations();
    const size_t n = std::min(spec.num_relations, used.size());
    for (size_t i = 0; i < n; ++i) {
      options.relations.push_back(used[i * used.size() / n]);
    }
  }
  return options;
}

std::string FactsTsv(const std::vector<DiscoveredFact>& facts,
                     const Dataset& dataset) {
  return FormatFactsTsv(facts, dataset.entity_vocab(),
                        dataset.relation_vocab());
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const DiscoveredFact& x, const DiscoveredFact& y) {
                      return x.triple == y.triple && x.rank == y.rank &&
                             x.subject_rank == y.subject_rank &&
                             x.object_rank == y.object_rank;
                    });
}

std::string SpotCheckFacts(const std::vector<DiscoveredFact>& facts,
                           const Model& model, const TripleStore& kg,
                           size_t top_n, size_t limit) {
  // Reference rank: 1 + |greater| + |ties| / 2 over the entities that do
  // not form a known triple, the filtered protocol of Algorithm 1.
  auto rank = [](const std::vector<double>& scores, EntityId target,
                 const std::vector<EntityId>& known) {
    std::vector<char> skip(scores.size(), 0);
    for (EntityId e : known) skip[e] = 1;
    skip[target] = 1;
    double greater = 0.0;
    double ties = 0.0;
    for (size_t i = 0; i < scores.size(); ++i) {
      if (skip[i]) continue;
      if (scores[i] > scores[target]) greater += 1.0;
      if (scores[i] == scores[target]) ties += 1.0;
    }
    return 1.0 + greater + ties / 2.0;
  };
  const size_t n = std::min(limit, facts.size());
  std::vector<double> scores;
  for (size_t k = 0; k < n; ++k) {
    const DiscoveredFact& f = facts[k * facts.size() / n];
    const Triple& t = f.triple;
    const std::string where = "fact (" + std::to_string(t.subject) + ", " +
                              std::to_string(t.relation) + ", " +
                              std::to_string(t.object) + ")";
    if (kg.Contains(t)) return where + " is already in the KG";
    model.ScoreObjects(t.subject, t.relation, &scores);
    const double object_rank =
        rank(scores, t.object, kg.ObjectsOf(t.subject, t.relation));
    model.ScoreSubjects(t.relation, t.object, &scores);
    const double subject_rank =
        rank(scores, t.subject, kg.SubjectsOf(t.relation, t.object));
    if (object_rank != f.object_rank || subject_rank != f.subject_rank ||
        0.5 * (object_rank + subject_rank) != f.rank) {
      return where + " has ranks that differ from the reference count";
    }
    if (f.rank > static_cast<double>(top_n)) {
      return where + " ranks below top_n";
    }
  }
  return "";
}

namespace {

int Main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 10.0);
  args.trace_path = flags.GetString("trace", "");
  args.quick = flags.GetBool("quick", false);
  args.server_binary = flags.GetString("server", "");
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const int64_t threads =
      flags.GetInt("threads", static_cast<int64_t>(std::min<size_t>(4, nproc)));

  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown --workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Oversubscribing the cores would measure the scheduler, not kgfd.
  if (threads < 1 || static_cast<size_t>(threads) > nproc) {
    std::fprintf(stderr, "bench_e2e: --threads must be in [1, %zu]\n", nproc);
    return 2;
  }
  args.threads = static_cast<size_t>(threads);
  if (!(args.seconds > 0.0)) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    return 2;
  }
  if (spec->server && args.server_binary.empty()) {
    std::fprintf(stderr, "bench_e2e: %s needs --server PATH\n", spec->name);
    return 2;
  }

  // A private scratch directory, removed however the run ends.
  std::error_code ec;
  const std::string root = flags.GetString(
      "tmp_dir",
      (std::filesystem::temp_directory_path(ec) / "bench_e2e").string());
  args.tmp_dir = root + "/" + spec->name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(args.tmp_dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s\n",
                 args.tmp_dir.c_str());
    return 1;
  }
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_tmp{args.tmp_dir};

  Report report(spec->name);
  report.Info("seed=" + std::to_string(args.seed) +
              " traced=" + (args.trace_path.empty() ? "0" : "1") +
              " quick=" + (args.quick ? "1" : "0") +
              " pool_threads=" + std::to_string(args.threads) +
              " nproc=" + std::to_string(nproc) +
              " kernel_backend=" + kernels::ActiveKernelName());
  const Status status = spec->server
                            ? RunServerWorkload(*spec, args, &report)
                            : RunLibraryWorkload(*spec, args, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", spec->name,
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s result attempted=%zu failed=%zu\n", spec->name,
              report.attempted(), report.failed());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace kgfd

int main(int argc, char** argv) { return kgfd::e2e::Main(argc, argv); }
