#ifndef KGFD_BENCH_E2E_REPLAY_H_
#define KGFD_BENCH_E2E_REPLAY_H_

/// The traced replay: DiscoverFacts's fixed-strategy sweep (paper
/// Algorithm 1) rebuilt from kgfd's public calls, with a span around each
/// call. It is a deliberate, temporary copy — the program exposes no
/// per-phase functions or spans yet — so every run checks that its facts
/// are byte-identical to DiscoverFacts, which keeps the copy from drifting
/// silently from the program it measures.
///
/// Span tree of one sweep:
///   sweep
///     strategy.weights          (once per sweep when weights are hoisted)
///     relation                  (subject = relation id)
///       strategy.weights        ComputeStrategyWeights + AliasSampler::Build
///       generation              alias sampling, TripleStore::Contains, dedup
///       keys                    distinct (s, r) / (r, o) side keys
///       discovery_cache.fetch   DiscoveryCache::Fetch*   (with a cache)
///       score                   SideScoreCache::Precompute*
///       discovery_cache.publish DiscoveryCache::Publish* (with a cache)
///       rank_count              Find* + RankAgainstScores per candidate
///       filter                  top_n filter

#include <cstdint>
#include <vector>

#include "core/discovery.h"
#include "kg/triple_store.h"
#include "kge/model.h"
#include "util/status.h"

namespace kgfd {

class ThreadPool;

namespace e2e {

class Tracer;

/// Runs one traced sweep with the same relation fan-out on `pool` as
/// DiscoverFacts. Supports the configurations the workloads use: a fixed
/// comparative strategy, mean rank aggregation, no type filter, and weights
/// either recomputed per relation (cache_weights = false) or served by
/// options.shared_cache. `subject` tags the sweep span.
Result<std::vector<DiscoveredFact>> TracedSweep(const Model& model,
                                                const TripleStore& kg,
                                                const DiscoveryOptions& options,
                                                ThreadPool* pool,
                                                Tracer* tracer,
                                                int64_t subject);

}  // namespace e2e
}  // namespace kgfd

#endif  // KGFD_BENCH_E2E_REPLAY_H_
