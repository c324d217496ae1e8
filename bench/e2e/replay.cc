#include "replay.h"

#include <cmath>
#include <memory>
#include <unordered_set>

#include "core/discovery_cache.h"
#include "core/side_score_cache.h"
#include "core/strategy.h"
#include "kge/evaluator.h"
#include "kge/kernels.h"
#include "trace.h"
#include "util/alias_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgfd {
namespace e2e {

Result<std::vector<DiscoveredFact>> TracedSweep(const Model& model,
                                                const TripleStore& kg,
                                                const DiscoveryOptions& options,
                                                ThreadPool* pool,
                                                Tracer* tracer,
                                                int64_t subject) {
  if (options.strategy == SamplingStrategy::kAdaptive ||
      options.strategy == SamplingStrategy::kModelScore ||
      options.type_filter ||
      options.rank_aggregation != RankAggregation::kMean ||
      (options.cache_weights && options.shared_cache == nullptr)) {
    return Status::InvalidArgument(
        "the traced replay covers only the benchmark's configurations");
  }
  KGFD_RETURN_NOT_OK(ValidateDiscoveryOptions(options, kg));

  std::vector<RelationId> relations = options.relations;
  if (relations.empty()) relations = kg.UsedRelations();
  // Algorithm 1 line 4, as in DiscoverFacts.
  const size_t sample_size =
      static_cast<size_t>(
          std::sqrt(static_cast<double>(options.max_candidates))) +
      10;
  DiscoveryCache* const shared = options.shared_cache;

  ScopedSpan sweep(tracer, "sweep", 0, subject);
  std::shared_ptr<const DiscoveryCache::WeightsEntry> hoisted;
  if (shared != nullptr) {
    ScopedSpan span(tracer, "strategy.weights", sweep.id());
    KGFD_ASSIGN_OR_RETURN(hoisted,
                          shared->GetOrComputeWeights(options.strategy, kg));
    span.set_count(1);
  }

  struct Outcome {
    std::vector<DiscoveredFact> facts;
    Status status;
  };
  std::vector<Outcome> outcomes(relations.size());

  auto process_relation = [&](size_t index) {
    const RelationId r = relations[index];
    Outcome& out = outcomes[index];
    ScopedSpan relation(tracer, "relation", sweep.id(), r);
    Rng rng(options.seed ^
            (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(r) + 1)));

    // Line 7: compute_weights(strategy) inside the loop, as published.
    DiscoveryCache::WeightsEntry local;
    const DiscoveryCache::WeightsEntry* w = hoisted.get();
    if (w == nullptr) {
      ScopedSpan span(tracer, "strategy.weights", relation.id(), r);
      auto weights = ComputeStrategyWeights(options.strategy, kg);
      if (!weights.ok()) {
        out.status = weights.status();
        return;
      }
      local.weights = std::move(weights).value();
      auto subject_sampler = AliasSampler::Build(local.weights.subject_weights);
      auto object_sampler = AliasSampler::Build(local.weights.object_weights);
      if (!subject_sampler.ok() || !object_sampler.ok()) {
        out.status = subject_sampler.ok() ? object_sampler.status()
                                          : subject_sampler.status();
        return;
      }
      local.subject_sampler = std::move(subject_sampler).value();
      local.object_sampler = std::move(object_sampler).value();
      span.set_count(1);
      w = &local;
    }

    // Lines 8-13: sample, mesh-grid, drop seen triples and duplicates.
    std::vector<Triple> candidates;
    {
      ScopedSpan span(tracer, "generation", relation.id(), r);
      std::unordered_set<uint64_t> seen;
      uint64_t pairs_tried = 0;
      for (size_t iteration = 0; iteration < options.max_iterations &&
                                 candidates.size() < options.max_candidates;
           ++iteration) {
        std::vector<EntityId> s_samples(sample_size);
        std::vector<EntityId> o_samples(sample_size);
        for (size_t i = 0; i < sample_size; ++i) {
          s_samples[i] =
              w->weights.subject_pool[w->subject_sampler.Sample(&rng)];
          o_samples[i] = w->weights.object_pool[w->object_sampler.Sample(&rng)];
        }
        for (EntityId s : s_samples) {
          if (candidates.size() >= options.max_candidates) break;
          for (EntityId o : o_samples) {
            if (candidates.size() >= options.max_candidates) break;
            ++pairs_tried;
            const Triple t{s, r, o};
            if (kg.Contains(t)) continue;
            if (!seen.insert(PackTriple(t)).second) continue;
            candidates.push_back(t);
          }
        }
      }
      span.set_count(pairs_tried);
    }

    // Lines 14-15: rank against corruptions, keep rank <= top_n.
    std::vector<SideScoreCache::Key> subject_keys;
    std::vector<SideScoreCache::Key> object_keys;
    {
      ScopedSpan span(tracer, "keys", relation.id(), r);
      std::unordered_set<EntityId> seen_subjects;
      std::unordered_set<EntityId> seen_objects;
      for (const Triple& t : candidates) {
        if (seen_subjects.insert(t.subject).second) {
          subject_keys.emplace_back(t.subject, r);
        }
        if (seen_objects.insert(t.object).second) {
          object_keys.emplace_back(t.object, r);
        }
      }
      span.set_count(subject_keys.size() + object_keys.size());
    }
    SideScoreCache cache;
    std::vector<SideScoreCache::Key> fresh_subject_keys;
    std::vector<SideScoreCache::Key> fresh_object_keys;
    const std::vector<SideScoreCache::Key>* score_subject_keys = &subject_keys;
    const std::vector<SideScoreCache::Key>* score_object_keys = &object_keys;
    if (shared != nullptr) {
      ScopedSpan span(tracer, "discovery_cache.fetch", relation.id(), r);
      const size_t hits =
          shared->FetchObjects(subject_keys, options.filtered_ranking, &cache,
                               &fresh_subject_keys) +
          shared->FetchSubjects(object_keys, options.filtered_ranking, &cache,
                                &fresh_object_keys);
      span.set_count(hits);
      score_subject_keys = &fresh_subject_keys;
      score_object_keys = &fresh_object_keys;
    }
    {
      ScopedSpan span(tracer, "score", relation.id(), r);
      const size_t entries =
          cache.PrecomputeObjects(model, kg, *score_subject_keys,
                                  options.filtered_ranking, pool) +
          cache.PrecomputeSubjects(model, kg, *score_object_keys,
                                   options.filtered_ranking, pool);
      span.set_count(entries);
    }
    if (shared != nullptr) {
      ScopedSpan span(tracer, "discovery_cache.publish", relation.id(), r);
      shared->PublishObjects(fresh_subject_keys, options.filtered_ranking,
                             cache);
      shared->PublishSubjects(fresh_object_keys, options.filtered_ranking,
                              cache);
      span.set_count(fresh_subject_keys.size() + fresh_object_keys.size());
    }

    const size_t n = candidates.size();
    std::vector<double> subject_ranks(n);
    std::vector<double> object_ranks(n);
    {
      ScopedSpan span(tracer, "rank_count", relation.id(), r);
      ParallelFor(
          pool, n,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              const Triple& t = candidates[i];
              const SideScoreCache::Entry* obj =
                  cache.FindObjects(t.subject, r);
              object_ranks[i] =
                  RankAgainstScores(obj->scores, t.object, &obj->excluded);
              const SideScoreCache::Entry* subj =
                  cache.FindSubjects(r, t.object);
              subject_ranks[i] =
                  RankAgainstScores(subj->scores, t.subject, &subj->excluded);
            }
          },
          nullptr, kernels::kQueryBlock);
      span.set_count(n);
    }
    {
      ScopedSpan span(tracer, "filter", relation.id(), r);
      for (size_t i = 0; i < n; ++i) {
        const double rank = 0.5 * (subject_ranks[i] + object_ranks[i]);
        if (rank <= static_cast<double>(options.top_n)) {
          out.facts.push_back(DiscoveredFact{candidates[i], rank,
                                             subject_ranks[i],
                                             object_ranks[i]});
        }
      }
      span.set_count(out.facts.size());
    }
  };

  ParallelFor(pool, relations.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) process_relation(i);
  });

  std::vector<DiscoveredFact> facts;
  for (Outcome& out : outcomes) {
    KGFD_RETURN_NOT_OK(out.status);
    facts.insert(facts.end(), out.facts.begin(), out.facts.end());
  }
  sweep.set_count(facts.size());
  return facts;
}

}  // namespace e2e
}  // namespace kgfd
