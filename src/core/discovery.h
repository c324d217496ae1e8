#ifndef KGFD_CORE_DISCOVERY_H_
#define KGFD_CORE_DISCOVERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "kg/triple_store.h"
#include "kg/types.h"
#include "kge/model.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace kgfd {

class DiscoveryCache;
class MetricsRegistry;

/// Metric names DiscoverFacts populates when DiscoveryOptions::metrics is
/// set (see src/obs/). The three span histograms partition the per-relation
/// work into disjoint phases, so their sums line up with the corresponding
/// DiscoveryStats fields.
inline constexpr char kDiscoveryWeightsSpan[] = "discovery.weights.seconds";
inline constexpr char kDiscoveryGenerationSpan[] =
    "discovery.generation.seconds";
inline constexpr char kDiscoveryRankingSpan[] = "discovery.ranking.seconds";
inline constexpr char kDiscoveryCandidatesCounter[] =
    "discovery.candidates.generated";
inline constexpr char kDiscoveryFactsCounter[] = "discovery.facts.kept";
inline constexpr char kDiscoveryScoreCacheHits[] =
    "discovery.score_cache.hits";
inline constexpr char kDiscoveryScoreCacheMisses[] =
    "discovery.score_cache.misses";
inline constexpr char kDiscoveryRelationsCounter[] =
    "discovery.relations.processed";
// ADAPTIVE strategy metrics live in adaptive/scheduler.h
// (adaptive.rounds, adaptive.budget.<strategy>, adaptive.reward.<strategy>,
// adaptive.cost.<strategy>).

/// How the two side ranks of a candidate collapse into the single rank the
/// paper's Algorithm 1 filters on.
enum class RankAggregation { kMean, kMin, kMax };

struct RelationCompletion;       // defined below, after DiscoveredFact
struct AdaptiveRoundCompletion;  // defined below, after DiscoveredFact
struct AdaptiveResumeState;      // defined below, after DiscoveredFact

/// Hyperparameters of the Discover Facts algorithm (paper Algorithm 1).
struct DiscoveryOptions {
  /// Candidates ranking worse than this against their corruptions are
  /// dropped (the paper's quality threshold; its experiments use 500).
  size_t top_n = 500;
  /// Maximum number of candidates generated per relation.
  size_t max_candidates = 500;
  SamplingStrategy strategy = SamplingStrategy::kEntityFrequency;
  /// Relations to discover facts for; empty = every relation used in the KG
  /// (Algorithm 1 line 3).
  std::vector<RelationId> relations;
  /// Generation retries per relation; the paper fixes this at 5.
  size_t max_iterations = 5;
  /// Exclude known-true corruptions when ranking (standard filtered
  /// protocol).
  bool filtered_ranking = true;
  /// Faithful mode (false) recomputes strategy weights inside the relation
  /// loop exactly like Algorithm 1 line 7; true computes them once — the
  /// weight-caching ablation.
  bool cache_weights = false;
  RankAggregation rank_aggregation = RankAggregation::kMean;
  /// CHAI-style rule filter (see core/type_filter.h): drop generated
  /// candidates whose subject/object fall outside the relation's observed
  /// domain/range. An extension beyond the paper's Algorithm 1, motivated
  /// by its §5.1 discussion of rule-based candidate filtering.
  bool type_filter = false;
  uint64_t seed = 123;
  /// ADAPTIVE only: number of bandit rounds the per-relation max_candidates
  /// budget is split into (adaptive/scheduler.h). More rounds give the
  /// bandit more reallocation opportunities at the cost of smaller (noisier)
  /// per-round reward samples.
  size_t adaptive_rounds = 8;
  /// ADAPTIVE only: the UCB1 exploration constant c. 0 is pure greedy after
  /// the forced first pass over the arms; larger values spread budget wider.
  double adaptive_exploration = 0.5;
  /// ADAPTIVE only: per-relation round history restored from a resume
  /// manifest. Relations with restored rounds replay them (bit-identical,
  /// no re-ranking) before playing the remaining rounds live. Not a
  /// config-file key; set in code (core/resume.h does).
  const AdaptiveResumeState* adaptive_resume = nullptr;
  /// ADAPTIVE only: invoked after every *live* bandit round, from whichever
  /// thread processes the relation (must be thread-safe under a pool, like
  /// on_relation_complete). Replayed rounds do not re-fire it. The
  /// round-level checkpoint seam the resume layer persists. Not a
  /// config-file key; set in code.
  std::function<void(AdaptiveRoundCompletion&&)> on_round_complete;
  /// When set, per-phase latency histograms and candidate/fact/score-cache
  /// counters are recorded here (metric names above). Null disables all
  /// instrumentation at zero cost.
  MetricsRegistry* metrics = nullptr;
  /// Cooperative stop signal: an optional CancellationToken and/or Deadline
  /// observed at per-relation and per-ranking-chunk checkpoints. Stopping is
  /// graceful degradation, not an error — DiscoverFacts returns the facts of
  /// every relation that completed before the stop, with
  /// DiscoveryResult::stopped_reason saying why the sweep ended early.
  /// Relations are all-or-nothing: one interrupted mid-ranking contributes
  /// no facts and no on_relation_complete call, so a later resume reproduces
  /// its facts bit-identically. Not a config-file key; set it in code.
  CancelContext cancel;
  /// Upper bound on the estimated per-relation transient memory of candidate
  /// generation + ranking (sample vectors, mesh-grid candidates, dedup set,
  /// rank slots). Guards against max_candidates values whose sample_size^2
  /// mesh-grid would overflow or allocate absurdly; exceeding it fails fast
  /// with InvalidArgument before anything is allocated.
  size_t max_candidate_memory_bytes = size_t{1} << 30;  // 1 GiB
  /// Cross-run cache of strategy weights and side-score entries (see
  /// core/discovery_cache.h). Must belong to the same (model, KG) pair as
  /// this run — the owner keys caches by model/KG fingerprint. Because every
  /// cached artifact is a deterministic function of (model, KG), a run with
  /// a warm cache produces bit-identical facts to a cold one. When set, the
  /// weights phase always serves from the cache (one computation per
  /// strategy), so cache_weights=false loses its recompute-per-relation
  /// semantics; the faithful-timing ablation should not pass a shared
  /// cache. Not a config-file key; set it in code.
  DiscoveryCache* shared_cache = nullptr;
  /// Invoked once per relation immediately after its facts are final,
  /// from whichever thread processed the relation — the callback must be
  /// thread-safe when a pool is used. Completion order is unspecified under
  /// a pool; RelationCompletion::index ties each call back to the run's
  /// relation order. Not a config-file key; set it in code.
  std::function<void(RelationCompletion&&)> on_relation_complete;
};

/// One discovered fact: a triple absent from the KG that the model ranks
/// within top_n.
struct DiscoveredFact {
  Triple triple;
  /// Aggregated rank (per DiscoveryOptions::rank_aggregation).
  double rank = 0.0;
  double subject_rank = 0.0;
  double object_rank = 0.0;
};

/// Everything DiscoverFacts knows about one finished relation, handed to
/// DiscoveryOptions::on_relation_complete (the checkpoint seam the resume
/// layer in core/resume.h persists after every relation).
struct RelationCompletion {
  RelationId relation = 0;
  /// Position of the relation in the run's relation order.
  size_t index = 0;
  size_t num_candidates = 0;
  std::vector<DiscoveredFact> facts;
};

/// One finished ADAPTIVE bandit round of one relation — the round-level
/// checkpoint unit. `arm` is the canonical SamplingStrategyName of the
/// strategy the scheduler granted the round to; on resume the scheduler is
/// replayed and must re-derive the same arm, which pins the replay to the
/// original allocation sequence.
struct AdaptiveRoundRecord {
  size_t round = 0;
  std::string arm;
  size_t num_candidates = 0;
  std::vector<DiscoveredFact> facts;
};

/// Round history restored from a resume manifest, keyed by relation.
/// Relations present here were interrupted mid-relation; their recorded
/// rounds are replayed without re-ranking, then the remaining rounds run
/// live.
struct AdaptiveResumeState {
  std::map<RelationId, std::vector<AdaptiveRoundRecord>> rounds;
};

/// Payload of DiscoveryOptions::on_round_complete: one live round plus the
/// identity of the relation it belongs to.
struct AdaptiveRoundCompletion {
  RelationId relation = 0;
  /// Position of the relation in the run's relation order.
  size_t index = 0;
  AdaptiveRoundRecord record;
};

/// Phase-split accounting of one discovery run. The three phase fields are
/// disjoint (weights are *not* folded into generation), so
/// weight + generation + evaluation never double-counts any interval and
/// sums to at most total_seconds on a serial run.
struct DiscoveryStats {
  double total_seconds = 0.0;
  /// Candidate sampling + mesh-grid + dedup/filtering (excluding the
  /// strategy weight computation, reported separately below).
  double generation_seconds = 0.0;
  /// compute_weights(): strategy weight computation + sampler builds.
  double weight_seconds = 0.0;
  /// Candidate ranking against corruptions.
  double evaluation_seconds = 0.0;
  size_t num_candidates = 0;
  size_t num_facts = 0;
  size_t num_relations_processed = 0;
  /// Relations not processed because the run stopped early (cancellation or
  /// deadline); always 0 when stopped_reason is kNone.
  size_t num_relations_skipped = 0;

  /// The paper's efficiency metric: discovered facts per hour of total
  /// runtime.
  double FactsPerHour() const {
    return total_seconds > 0.0
               ? static_cast<double>(num_facts) / (total_seconds / 3600.0)
               : 0.0;
  }
};

struct DiscoveryResult {
  std::vector<DiscoveredFact> facts;
  DiscoveryStats stats;
  /// kNone when the sweep ran to completion; otherwise why it stopped
  /// early. A stopped run is still a *successful* run — `facts` holds every
  /// relation that completed before the stop.
  StoppedReason stopped_reason = StoppedReason::kNone;
};

/// Mean reciprocal rank of the discovered facts — the paper's quality
/// metric (Eq. 7). Zero when no facts were found.
double DiscoveryMrr(const std::vector<DiscoveredFact>& facts);

/// Fraction of discovered facts touching a long-tail entity: an entity
/// whose undirected degree in `kg` is <= the `quantile` degree over
/// connected entities. The coverage metric of the exploration-strategy
/// extension (the paper's §6 observes that popularity-based sampling
/// "leaves out long-tail entities where the need for discovering new facts
/// is higher"). Zero if no facts.
double LongTailShare(const std::vector<DiscoveredFact>& facts,
                     const TripleStore& kg, double quantile = 0.5);

class ThreadPool;

/// Validates the hyperparameters of `options` against `kg`: every knob must
/// lie in the range of its row of core/discovery_options.h, every explicit
/// relation id must exist in the KG, and the mesh-grid transient-memory
/// estimate must fit under max_candidate_memory_bytes. DiscoverFacts runs
/// this first;
/// entry points that may skip the sweep entirely (DiscoverFactsResumable
/// with a fully-done manifest, the job server at admission time) call it
/// directly so invalid options never read as success.
Status ValidateDiscoveryOptions(const DiscoveryOptions& options,
                                const TripleStore& kg);

/// The Discover Facts algorithm (paper Algorithm 1). For each relation:
/// compute strategy weights, sample sqrt(max_candidates)+10 subjects and
/// objects, mesh-grid them into candidates, drop triples already in `kg`,
/// repeat (<= max_iterations) until max_candidates candidates exist, rank
/// each candidate against its corruptions with `model`, and keep those with
/// aggregated rank <= top_n.
///
/// Parallelism is two-level on `pool`: relations fan out across workers,
/// and *within* each relation the ranking phase fans out again — scoring
/// passes over distinct (s, r)/(r, o) pairs and per-candidate rank
/// computations run as nested ParallelFor loops (safe because waits are
/// TaskGroup-scoped). A job targeting a single hot relation therefore
/// still uses every worker.
///
/// Each relation draws from its own seed-derived RNG stream and ranks land
/// in fixed per-candidate slots, so the output is bit-identical in
/// options.seed for every thread count, including the serial path
/// (pool == nullptr). Under a pool, the per-phase stats are summed across
/// concurrently-processed relations and may exceed total_seconds (wall
/// clock).
///
/// options.cancel makes the sweep stoppable: checkpoints at relation
/// boundaries and between ranking chunks observe the token/deadline, workers
/// stop claiming work within one chunk's latency, and the call returns OK
/// with the completed relations' facts and a non-kNone
/// DiscoveryResult::stopped_reason. The `discovery.cancel` failpoint site is
/// evaluated at the same checkpoints, so tests can inject Cancelled /
/// DeadlineExceeded to drive this path deterministically.
Result<DiscoveryResult> DiscoverFacts(const Model& model,
                                      const TripleStore& kg,
                                      const DiscoveryOptions& options,
                                      ThreadPool* pool = nullptr);

}  // namespace kgfd

#endif  // KGFD_CORE_DISCOVERY_H_
