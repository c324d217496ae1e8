/// The library workloads: DiscoverFacts sweeps on a thread pool, as a
/// researcher runs Algorithm 1 through the library or kgfd_cli.
///
/// Both modes start with an untimed warm-up sweep. Untraced: timed sweeps
/// for --seconds (at least three). Traced: pairs of one untraced
/// DiscoverFacts sweep and one traced replay sweep; the replay's spans give
/// the per-layer metrics, and the pair gives the tracing overhead.

#include <unordered_set>

#include "e2e.h"
#include "obs/metrics.h"
#include "replay.h"
#include "trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgfd {
namespace e2e {
namespace {

/// Runs `body` (which returns its own wall seconds) at least `min_runs`
/// times, then again while the next run is expected to end within
/// `seconds` of the first.
template <typename Body>
std::vector<double> RunFor(double seconds, size_t min_runs, size_t max_runs,
                           const Body& body) {
  std::vector<double> walls;
  const WallTimer timer;
  while (walls.size() < max_runs) {
    if (walls.size() >= min_runs &&
        timer.ElapsedSeconds() + walls.back() > seconds) {
      break;
    }
    walls.push_back(body());
  }
  return walls;
}

double SafeDiv(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

void ReportReplayLayers(const std::vector<Span>& spans, size_t num_entities,
                        size_t threads, Report* report) {
  const std::vector<double> self = SelfSeconds(spans);
  const std::vector<uint64_t> roots = RootIds(spans);
  std::unordered_set<uint64_t> sweeps;
  double sweep_wall = 0.0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "sweep") {
      sweeps.insert(s.id);
      sweep_wall += s.seconds();
    }
  }
  std::vector<bool> keep(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    keep[i] = sweeps.count(roots[i]) > 0;
  }
  std::map<std::string, NameTotals> t = TotalsByName(spans, keep);

  const size_t n = sweeps.size();
  const double per = SafeDiv(1.0, static_cast<double>(n));
  const double entities = static_cast<double>(num_entities);
  const double candidates = static_cast<double>(t["rank_count"].count);
  const double entries = static_cast<double>(t["score"].count);
  const double compares = 2.0 * candidates * entities;

  report->Metric("strategy.weights_s", t["strategy.weights"].seconds * per, "s",
                 n);
  report->Metric("strategy.weights_calls",
                 static_cast<double>(t["strategy.weights"].spans) * per,
                 "count", n);
  report->Metric("generation.s", t["generation"].seconds * per, "s", n);
  const double pairs_tried = static_cast<double>(t["generation"].count);
  report->Metric("generation.pairs_tried", pairs_tried * per, "count", n);
  report->Metric("generation.accept_ratio", SafeDiv(candidates, pairs_tried),
                 "ratio", n);
  report->Metric("score.s", t["score"].seconds * per, "s", n);
  report->Metric("score.entries", entries * per, "count", n);
  report->Metric("score.mscores_per_s",
                 SafeDiv(entries * entities, t["score"].seconds) * 1e-6, "M/s",
                 n);
  report->Metric("score.gbytes_computed",
                 entries * entities * kEmbeddingDim * 4.0 * per * 1e-9, "GB",
                 n);
  report->Metric("rank_count.s", t["rank_count"].seconds * per, "s", n);
  report->Metric("rank_count.gcompares", compares * per * 1e-9, "G", n);
  report->Metric("rank_count.mcompares_per_s",
                 SafeDiv(compares, t["rank_count"].seconds) * 1e-6, "M/s", n);
  report->Metric("side_cache.reuse_ratio",
                 1.0 - SafeDiv(static_cast<double>(t["keys"].count),
                               2.0 * candidates),
                 "ratio", n);
  report->Metric("filter.facts_per_candidate",
                 SafeDiv(static_cast<double>(t["filter"].count), candidates),
                 "ratio", n);
  report->Metric("pool.busy_share",
                 SafeDiv(t["relation"].seconds,
                         static_cast<double>(threads) * sweep_wall),
                 "ratio", n);
  report->Metric("trace.coverage", ChildCoverage(spans, self, "relation"),
                 "ratio", n);
  if (t.count("discovery_cache.fetch") > 0) {
    report->Metric("discovery_cache.fetch_s",
                   t["discovery_cache.fetch"].seconds * per, "s", n);
    report->Metric("discovery_cache.publish_s",
                   t["discovery_cache.publish"].seconds * per, "s", n);
    // Fetch copies each hit out of the store and publish copies each fresh
    // entry in: |E| doubles plus |E| mask bytes per entry.
    report->Metric("discovery_cache.gbytes_copied",
                   static_cast<double>(t["discovery_cache.fetch"].count +
                                       t["discovery_cache.publish"].count) *
                       entities * 9.0 * per * 1e-9,
                   "GB", n);
  }
}

Status RunLibraryWorkload(const WorkloadSpec& spec, const Args& args,
                          Report* report) {
  // Set-up several times; the reported set-up time is the median. Every
  // run builds identical artifacts, so the last one is kept.
  std::vector<SetupTimes> setups;
  Artifacts art;
  for (size_t k = 0; k < kSetupRuns; ++k) {
    art = Artifacts();
    SetupTimes times;
    KGFD_ASSIGN_OR_RETURN(
        art, RunSetup(spec, args,
                      args.tmp_dir + "/setup" + std::to_string(k), &times));
    setups.push_back(times);
  }
  const Model& model = *art.model;
  const TripleStore& kg = art.dataset->train();

  const bool traced = !args.trace_path.empty();
  MetricsRegistry registry;
  ThreadPool pool(args.threads);
  pool.AttachMetrics(traced ? &registry : nullptr);
  const Counter* helped = registry.GetCounter(kThreadPoolTasksHelped);
  const DiscoveryOptions options =
      BaseDiscoveryOptions(spec, kg, DeriveSeed(args.seed, 3));

  // Warm-up sweep, untimed: lets allocator arenas and caches settle, and its
  // facts are the reference every timed sweep, and the traced replay, must
  // reproduce exactly.
  auto warm = DiscoverFacts(model, kg, options, &pool);
  report->Op(warm.ok(), "warm-up DiscoverFacts: " + warm.status().ToString());
  if (!warm.ok()) return Status::OK();
  const std::vector<DiscoveredFact> reference = std::move(warm).value().facts;
  report->Digest(spec.name, FactsTsv(reference, *art.dataset));
  const std::string spot =
      SpotCheckFacts(reference, model, kg, options.top_n, 64);
  report->Op(spot.empty(), spot);

  std::vector<double> helped_per_sweep;
  auto sweep = [&] {
    const uint64_t helped_before = helped->value();
    const WallTimer timer;
    auto result = DiscoverFacts(model, kg, options, &pool);
    const double wall = timer.ElapsedSeconds();
    helped_per_sweep.push_back(
        static_cast<double>(helped->value() - helped_before));
    report->Op(result.ok() && SameFacts(result.value().facts, reference),
               "timed sweep facts differ from the warm-up sweep");
    return wall;
  };
  const size_t max_runs = args.quick ? 2 : 50;

  if (!traced) {
    const std::vector<double> walls =
        RunFor(args.seconds, std::min<size_t>(3, max_runs), max_runs, sweep);
    const double median = Percentile(walls, 0.5);
    const size_t n = walls.size();    report->Metric("facts_per_hour",
                   SafeDiv(static_cast<double>(reference.size()), median) *
                       3600.0,
                   "facts/h", n);
    report->Metric("sweep_iqr_s",
                   Percentile(walls, 0.75) - Percentile(walls, 0.25), "s", n);
    report->Metric("peak_rss_mb", PeakRssMb(0), "MB", 1);
    std::vector<double> totals;
    for (const SetupTimes& s : setups) totals.push_back(s.Total());
    report->Metric("setup_s", Percentile(totals, 0.5), "s", setups.size());
    return Status::OK();
  }

  // Traced: pairs of an untraced DiscoverFacts sweep and a traced replay.
  Tracer tracer;
  std::vector<double> untraced;
  std::vector<double> replayed;
  int64_t index = 0;
  RunFor(args.seconds, 1, max_runs / 2, [&] {
    untraced.push_back(sweep());
    const WallTimer timer;
    auto replay = TracedSweep(model, kg, options, &pool, &tracer, index++);
    replayed.push_back(timer.ElapsedSeconds());
    report->Op(replay.ok() && SameFacts(replay.value(), reference),
               "traced replay facts differ from DiscoverFacts");
    return untraced.back() + replayed.back();
  });
  const std::vector<Span> spans = tracer.Collect();
  KGFD_RETURN_NOT_OK(WriteSpans(args.trace_path, spans));
  ReportReplayLayers(spans, kg.num_entities(), args.threads, report);
  report->Metric("pool.tasks_helped", Percentile(helped_per_sweep, 0.5),
                 "count", helped_per_sweep.size());
  report->Metric("trace.overhead_ratio",
                 Percentile(replayed, 0.5) / Percentile(untraced, 0.5) - 1.0,
                 "ratio", replayed.size());
  ReportSetupLayers(setups, report);
  return Status::OK();
}

}  // namespace e2e
}  // namespace kgfd
