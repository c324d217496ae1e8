#include "core/discovery.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "adaptive/scheduler.h"
#include "adaptive/score_sketch.h"
#include "core/discovery_cache.h"
#include "core/discovery_options.h"
#include "core/side_score_cache.h"
#include "core/type_filter.h"
#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kge/evaluator.h"
#include "kge/kernels.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/alias_sampler.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kgfd {

double DiscoveryMrr(const std::vector<DiscoveredFact>& facts) {
  if (facts.empty()) return 0.0;
  double sum = 0.0;
  for (const DiscoveredFact& f : facts) sum += 1.0 / f.rank;
  return sum / static_cast<double>(facts.size());
}

double LongTailShare(const std::vector<DiscoveredFact>& facts,
                     const TripleStore& kg, double quantile) {
  if (facts.empty()) return 0.0;
  const Adjacency adj = Adjacency::FromTripleStore(kg);
  std::vector<uint64_t> degrees = Degrees(adj);
  std::vector<uint64_t> connected;
  connected.reserve(degrees.size());
  for (uint64_t d : degrees) {
    if (d > 0) connected.push_back(d);
  }
  if (connected.empty()) return 0.0;
  std::sort(connected.begin(), connected.end());
  const size_t idx = std::min(
      connected.size() - 1,
      static_cast<size_t>(quantile *
                          static_cast<double>(connected.size() - 1)));
  const uint64_t threshold = connected[idx];
  size_t touching = 0;
  for (const DiscoveredFact& f : facts) {
    if (degrees[f.triple.subject] <= threshold ||
        degrees[f.triple.object] <= threshold) {
      ++touching;
    }
  }
  return static_cast<double>(touching) / static_cast<double>(facts.size());
}

namespace {

/// Algorithm 1 line 4: mesh-grid side length.
size_t MeshGridSampleSize(size_t max_candidates) {
  return static_cast<size_t>(
             std::sqrt(static_cast<double>(max_candidates))) +
         10;
}

using WeightsEntry = DiscoveryCache::WeightsEntry;

/// Seed of relation r's RNG streams: the fixed sweep draws from it
/// directly, an adaptive sweep seeds its bandit and per-round streams
/// from it. Independent of the relation's position in the sweep, so any
/// thread order, and a resumed run, draws the same samples.
uint64_t RelationSeed(uint64_t seed, RelationId r) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(r) + 1));
}

/// Algorithm 1 line 7 for one strategy: from `shared` when set (one
/// computation per strategy across runs), else computed here and owned by
/// the returned pointer.
Result<std::shared_ptr<const WeightsEntry>> ResolveWeights(
    SamplingStrategy strategy, const Model& model, const TripleStore& kg,
    DiscoveryCache* shared) {
  if (shared != nullptr) {
    return shared->GetOrComputeWeights(strategy, kg, &model);
  }
  KGFD_ASSIGN_OR_RETURN(WeightsEntry entry,
                        ComputeWeightsEntry(strategy, &model, kg));
  return std::make_shared<const WeightsEntry>(std::move(entry));
}

/// Algorithm 1 lines 8-13 for relation r: each iteration draws
/// MeshGridSampleSize(quota) subjects and objects from `weights` (subject
/// then object, per sample, from `rng`) and walks their mesh grid, keeping
/// each (s, r, o) that is not in the KG (line 12), passes `type_filter`
/// when set, and is new to `seen` — until `quota` candidates or
/// `max_iterations` iterations.
std::vector<Triple> GenerateMeshGrid(const TripleStore& kg, RelationId r,
                                     const WeightsEntry& weights,
                                     size_t quota, size_t max_iterations,
                                     const RelationTypeFilter* type_filter,
                                     Rng* rng,
                                     std::unordered_set<uint64_t>* seen) {
  const size_t sample_size = MeshGridSampleSize(quota);
  std::vector<Triple> candidates;
  std::vector<EntityId> s_samples(sample_size);
  std::vector<EntityId> o_samples(sample_size);
  for (size_t iteration = 0;
       iteration < max_iterations && candidates.size() < quota;
       ++iteration) {
    for (size_t i = 0; i < sample_size; ++i) {
      s_samples[i] =
          weights.weights.subject_pool[weights.subject_sampler.Sample(rng)];
      o_samples[i] =
          weights.weights.object_pool[weights.object_sampler.Sample(rng)];
    }
    for (EntityId s : s_samples) {
      if (candidates.size() >= quota) break;
      for (EntityId o : o_samples) {
        if (candidates.size() >= quota) break;
        const Triple t{s, r, o};
        if (kg.Contains(t)) continue;
        if (type_filter != nullptr && !type_filter->Admissible(t)) continue;
        if (!seen->insert(PackTriple(t)).second) continue;
        candidates.push_back(t);
      }
    }
  }
  return candidates;
}

double Aggregate(RankAggregation agg, double subject_rank,
                 double object_rank) {
  switch (agg) {
    case RankAggregation::kMean:
      return 0.5 * (subject_rank + object_rank);
    case RankAggregation::kMin:
      return std::min(subject_rank, object_rank);
    case RankAggregation::kMax:
      return std::max(subject_rank, object_rank);
  }
  return 0.5 * (subject_rank + object_rank);
}

/// Algorithm 1 lines 14-15 for one batch of candidates of relation `r`:
/// scores every (s, r) and (r, o) side entry that `score_cache` does not
/// hold yet (fetched from, then published to, options.shared_cache when
/// set), ranks each candidate against its two entries, and appends those
/// with aggregate rank <= top_n to `facts` in candidate order. Returns the
/// number of entries this call scored or fetched, or nullopt once a stop
/// was observed — ranks may then be partial, so the caller abandons the
/// relation.
///
/// Ranking runs per side entry, not per candidate: the k candidates that
/// share an entry are ranked together in one pass over its |E| scores
/// (RankTargetsAgainstScores). Entries fan out over `pool`; ranks land in
/// fixed per-candidate slots and the top_n filter runs serially, so the
/// facts are bit-identical for every thread count.
std::optional<size_t> RankCandidates(
    const Model& model, const TripleStore& kg, RelationId r,
    const std::vector<Triple>& candidates, const DiscoveryOptions& options,
    ThreadPool* pool, const CancelContext* cancel,
    const std::function<bool()>& checkpoint_stop,
    const std::function<bool()>& fine_stop, SideScoreCache* score_cache,
    std::vector<DiscoveredFact>* facts) {
  // Side 0: object-score entries keyed (s, r), ranking their candidates'
  // objects. Side 1: subject-score entries keyed (o, r), ranking subjects.
  struct Side {
    std::vector<EntityId> entities;            // entry keys, first seen first
    std::vector<SideScoreCache::Key> missing;  // keys score_cache lacks
    // Candidate indices grouped by entry: entry e holds
    // members[offsets[e] .. offsets[e + 1]).
    std::vector<size_t> offsets;
    std::vector<size_t> members;
    std::vector<double> ranks;  // per candidate
  };
  const size_t n_cand = candidates.size();
  Side sides[2];
  std::vector<size_t> entry_of(n_cand);
  for (int side = 0; side < 2; ++side) {
    Side& sd = sides[side];
    std::unordered_map<EntityId, size_t> index;
    for (size_t i = 0; i < n_cand; ++i) {
      const EntityId e =
          side == 0 ? candidates[i].subject : candidates[i].object;
      const auto [it, fresh] = index.emplace(e, sd.entities.size());
      if (fresh) {
        sd.entities.push_back(e);
        if ((side == 0 ? score_cache->FindObjects(e, r)
                       : score_cache->FindSubjects(r, e)) == nullptr) {
          sd.missing.emplace_back(e, r);
        }
      }
      entry_of[i] = it->second;
    }
    // Counting sort of the candidates by entry.
    sd.offsets.assign(sd.entities.size() + 1, 0);
    for (size_t e : entry_of) ++sd.offsets[e + 1];
    for (size_t e = 0; e < sd.entities.size(); ++e) {
      sd.offsets[e + 1] += sd.offsets[e];
    }
    std::vector<size_t> next(sd.offsets.begin(), sd.offsets.end() - 1);
    sd.members.resize(n_cand);
    for (size_t i = 0; i < n_cand; ++i) sd.members[next[entry_of[i]]++] = i;
    sd.ranks.resize(n_cand);
  }

  // With a shared DiscoveryCache, seed score_cache with the entries earlier
  // runs already scored and only precompute the rest; freshly scored
  // entries are published back afterwards. Entries are deterministic in
  // (model, KG), so a warm run ranks against exactly the scores a cold run
  // would compute.
  DiscoveryCache* const shared = options.shared_cache;
  const bool filtered = options.filtered_ranking;
  std::vector<SideScoreCache::Key> fresh_objects;
  std::vector<SideScoreCache::Key> fresh_subjects;
  if (shared != nullptr) {
    shared->FetchObjects(sides[0].missing, filtered, score_cache,
                         &fresh_objects);
    shared->FetchSubjects(sides[1].missing, filtered, score_cache,
                          &fresh_subjects);
  }
  score_cache->PrecomputeObjects(
      model, kg, shared != nullptr ? fresh_objects : sides[0].missing,
      filtered, pool, cancel);
  score_cache->PrecomputeSubjects(
      model, kg, shared != nullptr ? fresh_subjects : sides[1].missing,
      filtered, pool, cancel);
  if (shared != nullptr) {
    // Publish skips keys a cancelled precompute never scored.
    shared->PublishObjects(fresh_objects, filtered, *score_cache);
    shared->PublishSubjects(fresh_subjects, filtered, *score_cache);
  }
  // Pre-ranking checkpoint; also covers a stop during precompute, whose
  // partially built cache must never be dereferenced below.
  if (checkpoint_stop()) return std::nullopt;

  const size_t n_object_entries = sides[0].entities.size();
  ParallelFor(
      pool, n_object_entries + sides[1].entities.size(),
      [&](size_t begin, size_t end) {
        std::vector<size_t> targets;
        std::vector<double> ranks;
        RankScratch scratch;
        for (size_t e = begin; e < end; ++e) {
          // Bounds the serial path (one body call covering every entry)
          // too; the relation is abandoned, so bailing mid-chunk is safe.
          if (fine_stop()) return;
          const int side = e < n_object_entries ? 0 : 1;
          Side& sd = sides[side];
          const size_t entry = side == 0 ? e : e - n_object_entries;
          const EntityId key = sd.entities[entry];
          const SideScoreCache::Entry* cached =
              side == 0 ? score_cache->FindObjects(key, r)
                        : score_cache->FindSubjects(r, key);
          const size_t first = sd.offsets[entry];
          const size_t last = sd.offsets[entry + 1];
          targets.clear();
          for (size_t m = first; m < last; ++m) {
            const Triple& t = candidates[sd.members[m]];
            targets.push_back(side == 0 ? t.object : t.subject);
          }
          RankTargetsAgainstScores(cached->scores, &cached->excluded, targets,
                                   &ranks, &scratch);
          for (size_t m = first; m < last; ++m) {
            sd.ranks[sd.members[m]] = ranks[m - first];
          }
        }
      },
      cancel);
  // A stop observed any time during ranking may have left rank slots
  // unfilled.
  if (fine_stop()) return std::nullopt;
  for (size_t i = 0; i < n_cand; ++i) {
    const double object_rank = sides[0].ranks[i];
    const double subject_rank = sides[1].ranks[i];
    const double rank =
        Aggregate(options.rank_aggregation, subject_rank, object_rank);
    if (rank <= static_cast<double>(options.top_n)) {
      DiscoveredFact fact;
      fact.triple = candidates[i];
      fact.rank = rank;
      fact.subject_rank = subject_rank;
      fact.object_rank = object_rank;
      facts->push_back(fact);
    }
  }
  return sides[0].missing.size() + sides[1].missing.size();
}

}  // namespace

Status ValidateDiscoveryOptions(const DiscoveryOptions& options,
                                const TripleStore& kg) {
  KGFD_RETURN_NOT_OK(CheckDiscoveryOptionRanges(options));
  for (RelationId r : options.relations) {
    if (r >= kg.num_relations()) {
      return Status::OutOfRange("relation id out of range");
    }
  }

  // Guard the mesh-grid against absurd max_candidates before anything is
  // allocated: estimate the per-relation transient footprint (sample
  // vectors, candidate list, dedup hash set, rank slots, and the entry
  // index plus one member slot per side that RankCandidates groups by) in
  // double arithmetic so the estimate itself cannot overflow size_t.
  //
  // ~48 bytes/candidate of unordered_set node + bucket overhead on top of
  // the 8-byte packed key is a deliberate overestimate.
  const size_t sample_size = MeshGridSampleSize(options.max_candidates);
  const double estimated_bytes =
      2.0 * static_cast<double>(sample_size) * sizeof(EntityId) +
      static_cast<double>(options.max_candidates) *
          (sizeof(Triple) + 2 * sizeof(double) + 3 * sizeof(size_t) + 56.0);
  if (estimated_bytes >
      static_cast<double>(options.max_candidate_memory_bytes)) {
    return Status::InvalidArgument(
        "max_candidates=" + std::to_string(options.max_candidates) +
        " needs ~" + std::to_string(static_cast<uint64_t>(estimated_bytes)) +
        " bytes of per-relation candidate state, over the "
        "max_candidate_memory_bytes cap of " +
        std::to_string(options.max_candidate_memory_bytes) +
        "; lower max_candidates or raise the cap");
  }
  return Status::OK();
}

Result<DiscoveryResult> DiscoverFacts(const Model& model,
                                      const TripleStore& kg,
                                      const DiscoveryOptions& options,
                                      ThreadPool* pool) {
  KGFD_RETURN_NOT_OK(ValidateDiscoveryOptions(options, kg));
  KGFD_RETURN_NOT_OK(
      ValidateModelShape(model, kg.num_entities(), kg.num_relations()));

  // Algorithm 1 line 3: default to every relation present in the KG.
  std::vector<RelationId> relations = options.relations;
  if (relations.empty()) relations = kg.UsedRelations();

  WallTimer total_timer;
  MetricsRegistry* const metrics = options.metrics;
  // Resolve counters once so worker threads only pay an atomic increment.
  Counter* candidates_counter = nullptr;
  Counter* facts_counter = nullptr;
  Counter* cache_hits_counter = nullptr;
  Counter* cache_misses_counter = nullptr;
  Counter* relations_counter = nullptr;
  if (metrics != nullptr) {
    candidates_counter = metrics->GetCounter(kDiscoveryCandidatesCounter);
    facts_counter = metrics->GetCounter(kDiscoveryFactsCounter);
    cache_hits_counter = metrics->GetCounter(kDiscoveryScoreCacheHits);
    cache_misses_counter = metrics->GetCounter(kDiscoveryScoreCacheMisses);
    relations_counter = metrics->GetCounter(kDiscoveryRelationsCounter);
  }

  // --- Cooperative stop machinery -----------------------------------------
  // All stop sources (external token, deadline, the discovery.cancel
  // failpoint) funnel into one internal token: the first observer records
  // the reason + metrics, and every nested ParallelFor watches the internal
  // token, so one observation stops the whole sweep within a chunk.
  CancellationToken stop_token;
  std::atomic<int> stop_reason{static_cast<int>(StoppedReason::kNone)};
  const CancelContext run_cancel(&stop_token);

  auto observe_stop = [&](StoppedReason reason) {
    int expected = static_cast<int>(StoppedReason::kNone);
    if (stop_reason.compare_exchange_strong(expected,
                                            static_cast<int>(reason))) {
      if (metrics != nullptr) {
        metrics->GetCounter(kCancelRequestedCounter)->Increment();
        // Signal-to-observation latency; only meaningful for an external
        // token (deadline/failpoint stops have no request timestamp).
        const CancellationToken* ext = options.cancel.token();
        metrics->GetHistogram(kCancelObservedSecondsHist)
            ->Observe(ext != nullptr ? ext->SecondsSinceRequest() : 0.0);
      }
    }
    stop_token.RequestCancel();
  };

  // Cheap in-loop probe: internal token (already-observed stop) plus the
  // external token/deadline. No failpoint evaluation, so arming
  // discovery.cancel with a skip count stays deterministic — only the
  // coarse checkpoints below consume hits.
  const std::function<bool()> fine_stop = [&] {
    if (stop_token.IsCancelled()) return true;
    const StoppedReason r = options.cancel.StopReason();
    if (r != StoppedReason::kNone) {
      observe_stop(r);
      return true;
    }
    return false;
  };

  // Coarse checkpoint (relation start, between phases): everything
  // fine_stop sees plus the discovery.cancel failpoint, which simulates a
  // stop request — Cancelled or DeadlineExceeded specs map onto the
  // matching reason; any other injected code reads as a cancellation.
  const std::function<bool()> checkpoint_stop = [&] {
    if (fine_stop()) return true;
    const Status injected =
        FailPoints::Instance().Evaluate(kFailPointDiscoveryCancel);
    if (!injected.ok()) {
      observe_stop(injected.code() == StatusCode::kDeadlineExceeded
                       ? StoppedReason::kDeadline
                       : StoppedReason::kCancelled);
      return true;
    }
    return false;
  };

  const bool adaptive = options.strategy == SamplingStrategy::kAdaptive;

  // Line 7: compute_weights(strategy) runs inside the relation loop, as
  // published, unless it is hoisted out of it here:
  //  * cache_weights (the weight-caching ablation) asks for the hoist;
  //  * a shared DiscoveryCache already guarantees one computation per
  //    strategy across runs, so a per-relation recompute would only repeat
  //    a cache lookup;
  //  * MODEL_SCORE's sketch depends only on (model, KG), so a per-relation
  //    recompute would repeat the probe sweep for identical weights;
  //  * ADAPTIVE's bandit may grant any arm any round, so every arm's weights
  //    must exist before the relation loop starts.
  // A fixed strategy is a one-element arm set.
  const bool hoist_weights = adaptive || options.cache_weights ||
                             options.shared_cache != nullptr ||
                             options.strategy == SamplingStrategy::kModelScore;
  const std::vector<SamplingStrategy> arm_strategies =
      adaptive ? AdaptiveArmStrategies()
               : std::vector<SamplingStrategy>{options.strategy};
  std::vector<std::shared_ptr<const WeightsEntry>> arms(arm_strategies.size());
  double hoisted_weight_seconds = 0.0;
  if (hoist_weights) {
    ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
    for (size_t a = 0; a < arms.size(); ++a) {
      KGFD_ASSIGN_OR_RETURN(arms[a], ResolveWeights(arm_strategies[a], model,
                                                    kg, options.shared_cache));
    }
    hoisted_weight_seconds = weight_span.Stop();
  }

  std::unique_ptr<RelationTypeFilter> type_filter;
  if (options.type_filter) {
    type_filter = std::make_unique<RelationTypeFilter>(kg);
  }

  // Per-relation outcomes with fixed slots so a thread pool can fill them
  // in any order; each relation draws from its own seed-derived RNG stream,
  // making the output identical whether the loop runs serially or
  // in parallel.
  struct RelationOutcome {
    std::vector<DiscoveredFact> facts;
    size_t num_candidates = 0;
    double generation_seconds = 0.0;
    double evaluation_seconds = 0.0;
    double weight_seconds = 0.0;
    Status status;
    /// Set only when the relation ran to the end. A stopped sweep
    /// treats unfinished relations as all-or-nothing: they contribute no
    /// facts, no stats phases and no completion callback, so resuming later
    /// regenerates their facts bit-identically from their own RNG streams.
    bool completed = false;
  };
  std::vector<RelationOutcome> outcomes(relations.size());

  // Relation start, shared by the fixed and adaptive sweeps: the
  // relation-boundary checkpoint, then a fault-injection seam — a
  // per-relation failure (simulated I/O error, OOM, ...) aborts this
  // relation only; completed relations keep their outcomes, which the
  // resume layer has already persisted. False when the relation must not
  // run.
  auto start_relation = [&](RelationOutcome& out) {
    if (checkpoint_stop()) return false;
    out.status = FailPoints::Instance().Evaluate(kFailPointDiscoveryRelation);
    return out.status.ok();
  };

  // Relation end, shared by the fixed and adaptive sweeps.
  // `scored_candidates` and `entries` cover only the candidates this run
  // ranked and the side entries it scored or fetched for them. Every such
  // candidate does one lookup per side; the first toucher of each distinct
  // entry is the miss that paid for it. Derived arithmetically so the
  // numbers match the serial path exactly regardless of how the parallel
  // precompute was scheduled.
  auto finish_relation = [&](size_t index, RelationOutcome& out,
                             size_t scored_candidates, size_t entries) {
    if (metrics != nullptr) {
      candidates_counter->Increment(out.num_candidates);
      facts_counter->Increment(out.facts.size());
      cache_misses_counter->Increment(entries);
      cache_hits_counter->Increment(2 * scored_candidates - entries);
      relations_counter->Increment();
    }
    out.completed = true;
    if (options.on_relation_complete) {
      RelationCompletion completion;
      completion.relation = relations[index];
      completion.index = index;
      completion.num_candidates = out.num_candidates;
      completion.facts = out.facts;  // copy: `out` still feeds the result
      options.on_relation_complete(std::move(completion));
    }
  };

  auto process_relation = [&](size_t index) {
    const RelationId r = relations[index];
    RelationOutcome& out = outcomes[index];
    if (!start_relation(out)) return;
    Rng rng(RelationSeed(options.seed, r));

    // Line 7, unless hoisted above. Timed as its own phase, disjoint from
    // generation.
    std::shared_ptr<const WeightsEntry> weights = arms[0];
    if (!hoist_weights) {
      ScopedSpan weight_span(metrics, kDiscoveryWeightsSpan);
      auto resolved = ResolveWeights(options.strategy, model, kg, nullptr);
      if (!resolved.ok()) {
        out.status = resolved.status();
        return;
      }
      weights = std::move(resolved).value();
      out.weight_seconds = weight_span.Stop();
    }

    if (checkpoint_stop()) return;  // post-weights checkpoint

    ScopedSpan generation_span(metrics, kDiscoveryGenerationSpan);
    std::unordered_set<uint64_t> seen;
    const std::vector<Triple> candidates = GenerateMeshGrid(
        kg, r, *weights, options.max_candidates, options.max_iterations,
        type_filter.get(), &rng, &seen);
    out.num_candidates = candidates.size();
    out.generation_seconds = generation_span.Stop();

    if (checkpoint_stop()) return;  // post-generation checkpoint

    // Lines 14-15: rank candidates against corruptions, keep rank <= top_n.
    ScopedSpan ranking_span(metrics, kDiscoveryRankingSpan);
    SideScoreCache score_cache;
    const std::optional<size_t> entries = RankCandidates(
        model, kg, r, candidates, options, pool, &run_cancel,
        checkpoint_stop, fine_stop, &score_cache, &out.facts);
    if (!entries.has_value()) return;
    out.evaluation_seconds = ranking_span.Stop();
    finish_relation(index, out, out.num_candidates, *entries);
  };

  // ADAPTIVE: the same relation contract (all-or-nothing outcome slot, own
  // seed-derived RNG streams, bit-identical across thread counts), but the
  // candidate budget is played out in bandit rounds. Each round samples with
  // the granted arm's weights from a round-specific RNG stream, ranks only
  // its own candidates, and feeds accepted-facts-per-candidate back into the
  // scheduler; the relation's SideScoreCache persists across rounds so
  // repeated (entity, relation) pairs never re-score. Rounds — not
  // relations — are the checkpoint unit: each finished live round fires
  // on_round_complete, and a resumed run replays the recorded rounds
  // through the scheduler (verifying the arm sequence) before playing the
  // rest live.
  auto process_relation_adaptive = [&](size_t index) {
    const RelationId r = relations[index];
    RelationOutcome& out = outcomes[index];
    if (!start_relation(out)) return;
    const uint64_t relation_seed = RelationSeed(options.seed, r);

    BanditOptions bandit_options;
    bandit_options.rounds = options.adaptive_rounds;
    bandit_options.exploration = options.adaptive_exploration;
    bandit_options.seed = relation_seed;
    bandit_options.total_budget = options.max_candidates;
    bandit_options.metrics = metrics;
    BanditScheduler scheduler(arm_strategies, bandit_options);

    const std::vector<AdaptiveRoundRecord>* restored = nullptr;
    if (options.adaptive_resume != nullptr) {
      auto it = options.adaptive_resume->rounds.find(r);
      if (it != options.adaptive_resume->rounds.end()) restored = &it->second;
    }

    SideScoreCache score_cache;  // shared by every round of this relation
    std::unordered_set<uint64_t> fact_seen;  // cross-round dedup, first wins
    size_t live_candidates = 0;   // candidates scored by live rounds
    size_t unique_entries = 0;    // first-touch score entries, live rounds

    // Candidate generation for one round, from the round's own RNG stream —
    // a pure function of (seed, relation, round), so a replayed prefix
    // leaves later rounds' streams untouched. Deduplicates against every
    // earlier round of this relation — the same whole-relation contract as
    // the fixed path — so repeat draws from a favored arm keep producing
    // fresh candidates instead of burning quota on triples an earlier round
    // already ranked. The output (and the dedup set's evolution) is a pure
    // function of (seed, relation, arm sequence), never of ranking results,
    // which lets a resumed run rebuild the exact set state by regenerating
    // replayed rounds without re-scoring them.
    std::unordered_set<uint64_t> candidate_seen;
    auto generate_round = [&](const BanditScheduler::RoundPlan& plan) {
      Rng round_rng(relation_seed ^
                    (0xD1B54A32D192ED03ULL *
                     (static_cast<uint64_t>(plan.round) + 1)));
      return GenerateMeshGrid(kg, r, *arms[plan.arm], plan.quota,
                              options.max_iterations, type_filter.get(),
                              &round_rng, &candidate_seen);
    };

    while (!scheduler.Done()) {
      const BanditScheduler::RoundPlan plan = scheduler.NextRound();
      const SamplingStrategy arm_strategy = arm_strategies[plan.arm];

      if (restored != nullptr && plan.round < restored->size()) {
        // Replay: feed the recorded outcome back so the scheduler re-derives
        // the original allocation sequence, and merge the recorded facts
        // without re-ranking anything. A manifest whose recorded arm diverges
        // from the re-derived one was written by a different configuration
        // than CheckManifestCompatible admitted — refuse rather than splice
        // two different schedules.
        const AdaptiveRoundRecord& rec = (*restored)[plan.round];
        if (rec.arm != SamplingStrategyName(arm_strategy)) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded arm " +
              rec.arm + " but the scheduler re-derived " +
              SamplingStrategyName(arm_strategy) +
              "; the manifest does not match this run");
          return;
        }
        // Regenerate (never re-rank) the replayed round's candidates so the
        // cross-round dedup set evolves exactly as in the original run;
        // later live rounds then draw the same fresh candidates they would
        // have drawn uninterrupted. A count mismatch means the manifest was
        // produced under different generation inputs than this run.
        const std::vector<Triple> replayed = generate_round(plan);
        if (replayed.size() != rec.num_candidates) {
          out.status = Status::Internal(
              "resume manifest round " + std::to_string(plan.round) +
              " of relation " + std::to_string(r) + " recorded " +
              std::to_string(rec.num_candidates) +
              " candidates but regeneration produced " +
              std::to_string(replayed.size()) +
              "; the manifest does not match this run");
          return;
        }
        scheduler.Report(plan, rec.num_candidates, rec.facts.size(),
                         /*ranking_seconds=*/0.0);
        for (const DiscoveredFact& fact : rec.facts) {
          if (fact_seen.insert(PackTriple(fact.triple)).second) {
            out.facts.push_back(fact);
          }
        }
        out.num_candidates += rec.num_candidates;
        continue;  // replayed rounds never re-fire on_round_complete
      }

      if (checkpoint_stop()) return;  // round-boundary checkpoint

      ScopedSpan generation_span(metrics, kDiscoveryGenerationSpan);
      const std::vector<Triple> round_candidates = generate_round(plan);
      out.num_candidates += round_candidates.size();
      live_candidates += round_candidates.size();
      out.generation_seconds += generation_span.Stop();

      if (checkpoint_stop()) return;  // post-generation checkpoint

      // Ranking, restricted to this round's candidates. Keys the relation
      // cache already holds from earlier rounds are never re-scored.
      ScopedSpan ranking_span(metrics, kDiscoveryRankingSpan);
      std::vector<DiscoveredFact> round_facts;
      const std::optional<size_t> entries = RankCandidates(
          model, kg, r, round_candidates, options, pool, &run_cancel,
          checkpoint_stop, fine_stop, &score_cache, &round_facts);
      if (!entries.has_value()) return;
      unique_entries += *entries;
      const double ranking_seconds = ranking_span.Stop();
      out.evaluation_seconds += ranking_seconds;

      scheduler.Report(plan, round_candidates.size(), round_facts.size(),
                       ranking_seconds);
      for (const DiscoveredFact& fact : round_facts) {
        if (fact_seen.insert(PackTriple(fact.triple)).second) {
          out.facts.push_back(fact);
        }
      }

      if (options.on_round_complete) {
        AdaptiveRoundCompletion completion;
        completion.relation = r;
        completion.index = index;
        completion.record.round = plan.round;
        completion.record.arm = SamplingStrategyName(arm_strategy);
        completion.record.num_candidates = round_candidates.size();
        completion.record.facts = std::move(round_facts);
        options.on_round_complete(std::move(completion));
      }
    }
    // Replayed rounds did no scoring in this run, so only live rounds count
    // towards the score-cache counters.
    finish_relation(index, out, live_candidates, unique_entries);
  };

  ParallelFor(
      pool, relations.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (adaptive) {
            process_relation_adaptive(i);
          } else {
            process_relation(i);
          }
        }
      },
      &run_cancel);
  const auto final_reason =
      static_cast<StoppedReason>(stop_reason.load(std::memory_order_acquire));

  DiscoveryResult result;
  result.stopped_reason = final_reason;
  // Hoisted weight time belongs to the weight phase only; seeding
  // generation_seconds with it (as this code once did) double-counted it.
  result.stats.weight_seconds = hoisted_weight_seconds;
  for (RelationOutcome& out : outcomes) {
    KGFD_RETURN_NOT_OK(out.status);
    // Unfinished relations on a stopped sweep — whether their checkpoint
    // bailed or their index was never claimed by the cancelled ParallelFor
    // — are uniformly "skipped".
    if (!out.completed) {
      ++result.stats.num_relations_skipped;
      continue;
    }
    result.facts.insert(result.facts.end(), out.facts.begin(),
                        out.facts.end());
    result.stats.num_candidates += out.num_candidates;
    result.stats.generation_seconds += out.generation_seconds;
    result.stats.evaluation_seconds += out.evaluation_seconds;
    result.stats.weight_seconds += out.weight_seconds;
    ++result.stats.num_relations_processed;
  }
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  result.stats.num_facts = result.facts.size();
  return result;
}

}  // namespace kgfd
