#ifndef KGFD_BENCH_E2E_E2E_H_
#define KGFD_BENCH_E2E_E2E_H_

/// Shared declarations of the bench_e2e translation units: the workload
/// table, the benchmark's command-line arguments, the set-up pipeline and
/// the result sink every workload reports into.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/strategy.h"
#include "kg/dataset.h"
#include "kge/model.h"

namespace kgfd {
namespace e2e {

struct Span;

inline constexpr size_t kEmbeddingDim = 128;
/// Set-ups per benchmark run; setup_s is the median of their totals. One
/// set-up reads up to a fifth slower than its neighbours, so a median of
/// three still moved by over a quarter between runs.
inline constexpr size_t kSetupRuns = 5;

/// One benchmark workload. Every workload uses TransE at dim 128 and
/// top_n 500 on an FB15K-237-shaped synthetic KG.
struct WorkloadSpec {
  const char* name;
  bool server;
  /// FB15K-237 preset downscale divisor (1 = 14,541 entities).
  double scale;
  SamplingStrategy strategy;
  size_t max_candidates;
  /// 0 = every used relation; otherwise this many, evenly spaced over
  /// TripleStore::UsedRelations().
  size_t num_relations;
};

const std::vector<WorkloadSpec>& Workloads();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Span file of a traced run; empty = untraced run.
  std::string trace_path;
  /// Discovery pool size of the library workloads.
  size_t threads = 0;
  /// Scratch directory for generated datasets, checkpoints and the server's
  /// work dir. Removed again when the run ends.
  std::string tmp_dir;
  std::string server_binary;
  /// Toy sizes for the smoke test: KG scale 40, 2 sweeps, 5 jobs.
  bool quick = false;
};

/// Collects what a run prints: metrics, the operation tally, and output
/// digests.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Prints `<workload> <name> <value> <unit> n=<samples>`.
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// Prints `<workload> digest <key> <crc32> <bytes>` for the facts TSV.
  void Digest(const std::string& key, const std::string& facts_tsv);
  /// Prints `<workload> info <text>`.
  void Info(const std::string& text);

  /// One operation (sweep, job or HTTP request) attempted; `ok` false
  /// counts it as failed. `what` explains a failure on stderr.
  void Op(bool ok, const std::string& what = "");
  /// `attempted` operations of one kind, `failed` of them failed.
  void Ops(size_t attempted, size_t failed, const std::string& what);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  std::string workload_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Artifacts of the set-up pipeline, loaded back the way kgfd_cli and
/// kgfd_server load them.
struct Artifacts {
  std::string data_dir;
  std::string checkpoint;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Model> model;
};

/// Per-step seconds of one set-up run.
struct SetupTimes {
  double generate_s = 0.0;
  double save_s = 0.0;
  double kg_load_s = 0.0;
  double train_s = 0.0;
  double checkpoint_load_s = 0.0;
  double Total() const {
    return generate_s + save_s + kg_load_s + train_s + checkpoint_load_s;
  }
};

/// Generates the workload's KG, saves it, loads it back, trains
/// TransE on the loaded train split, saves and loads the checkpoint.
/// `dir` must exist.
Result<Artifacts> RunSetup(const WorkloadSpec& spec, const Args& args,
                           const std::string& dir, SetupTimes* times);

/// Reports the setup.* / kg.load_s / checkpoint.load_s medians.
void ReportSetupLayers(const std::vector<SetupTimes>& runs, Report* report);

/// Seed of one consumer (discovery sweep, job plan, job pool slot) derived
/// from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Options shared by the library sweeps and the server's job configs.
DiscoveryOptions BaseDiscoveryOptions(const WorkloadSpec& spec,
                                      const TripleStore& kg, uint64_t seed);

/// FormatFactsTsv of `facts` over the dataset's vocabularies.
std::string FactsTsv(const std::vector<DiscoveredFact>& facts,
                     const Dataset& dataset);

/// True when both lists hold the same facts in the same order with
/// identical ranks.
bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b);

/// Recomputes the subject and object ranks of up to `limit` facts spread
/// over `facts` with a reference count (1 + greater + ties/2 over every
/// non-excluded entity) and checks each fact is new and within top_n.
/// Returns an empty string when all hold, else the first violation.
std::string SpotCheckFacts(const std::vector<DiscoveredFact>& facts,
                           const Model& model, const TripleStore& kg,
                           size_t top_n, size_t limit);

/// VmHWM of a process in MB (`pid` 0 = this process); 0 if unreadable.
double PeakRssMb(int pid);

/// Per-layer metrics of the traced replay sweeps among `spans` (every span
/// under a "sweep" root), averaged per sweep.
void ReportReplayLayers(const std::vector<Span>& spans, size_t num_entities,
                        size_t threads, Report* report);

/// Run one workload into `report`; an error means set-up failed and the
/// run has no result.
Status RunLibraryWorkload(const WorkloadSpec& spec, const Args& args,
                          Report* report);
Status RunServerWorkload(const WorkloadSpec& spec, const Args& args,
                         Report* report);

}  // namespace e2e
}  // namespace kgfd

#endif  // KGFD_BENCH_E2E_E2E_H_
