#ifndef KGFD_CORE_DISCOVERY_CACHE_H_
#define KGFD_CORE_DISCOVERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/side_score_cache.h"
#include "core/strategy.h"
#include "kg/triple_store.h"
#include "util/alias_sampler.h"
#include "util/status.h"

namespace kgfd {

class MetricsRegistry;
class Counter;

/// Metric names recorded when a DiscoveryCache is constructed with a
/// registry. Weight hits count relations served from a cached strategy
/// computation; score hits/misses count side-score entries served from /
/// absent in the cross-run store.
inline constexpr char kSharedWeightsHitsCounter[] =
    "discovery.shared_weights.hits";
inline constexpr char kSharedWeightsMissesCounter[] =
    "discovery.shared_weights.misses";
inline constexpr char kSharedScoresHitsCounter[] =
    "discovery.shared_scores.hits";
inline constexpr char kSharedScoresMissesCounter[] =
    "discovery.shared_scores.misses";
/// Model-score sketch (MODEL_SCORE strategy) served from / absent in the
/// cache. A hit skips the whole probe-pass precompute.
inline constexpr char kSketchHitsCounter[] = "discovery.sketch.hits";
inline constexpr char kSketchMissesCounter[] = "discovery.sketch.misses";

/// Cross-run cache of the two most expensive reusable artifacts of
/// DiscoverFacts:
///
///  * strategy weights — ComputeStrategyWeights output plus the built alias
///    samplers, keyed by strategy (weights depend only on the KG);
///  * side-score entries — full ScoreObjects/ScoreSubjects passes, keyed by
///    (entity, relation, filtered protocol), exactly the SideScoreCache
///    entries a discovery run computes per relation.
///
/// Both artifacts are deterministic functions of (model, KG), so serving
/// them from cache leaves discovered facts bit-identical to a cold run —
/// the discovery server relies on this to keep HTTP job output
/// byte-identical to kgfd_cli while amortizing work across requests.
///
/// An instance is only valid for a FIXED (model, KG) pair. The owner (the
/// server's job manager) keys instances by the model/KG fingerprint of
/// core/resume.h (HashModelParameters + graph shape) and must never share
/// one across fingerprints; DiscoverFacts trusts the pairing.
///
/// All methods are thread-safe; entries are immutable once published, so
/// fetched shared_ptrs stay valid without holding any lock.
class DiscoveryCache {
 public:
  /// When `metrics` is non-null, hit/miss counters (names above) are
  /// recorded there for the lifetime of the cache.
  explicit DiscoveryCache(MetricsRegistry* metrics = nullptr);

  /// One strategy's sampling state, computed once and shared by every
  /// relation of every run that uses the strategy.
  struct WeightsEntry {
    StrategyWeights weights;
    AliasSampler subject_sampler;
    AliasSampler object_sampler;
  };

  /// Returns the cached entry for `strategy`, computing it with
  /// ComputeWeightsEntry on first use (MODEL_SCORE needs `model` for its
  /// score sketch). Concurrent callers for the same strategy serialize on
  /// the first computation and then share one entry. MODEL_SCORE lookups
  /// count as sketch hits/misses, every other strategy as weight hits/misses.
  /// The sketch is a deterministic function of (model, KG) — exactly the
  /// pair this instance is keyed by — so one instance never mixes sketches
  /// of two models.
  Result<std::shared_ptr<const WeightsEntry>> GetOrComputeWeights(
      SamplingStrategy strategy, const TripleStore& kg,
      const Model* model = nullptr);

  /// Hands the cached object-side entries for `keys` to `local` — the same
  /// immutable entries, not copies — and appends the keys without a cached
  /// entry to `missing` (preserving `keys` order). Returns the number of
  /// hits.
  size_t FetchObjects(const std::vector<SideScoreCache::Key>& keys,
                      bool filtered, SideScoreCache* local,
                      std::vector<SideScoreCache::Key>* missing);
  /// Subject-side counterpart ((object, relation) keys).
  size_t FetchSubjects(const std::vector<SideScoreCache::Key>& keys,
                       bool filtered, SideScoreCache* local,
                       std::vector<SideScoreCache::Key>* missing);

  /// Stores `local`'s entries for `keys` (shared, not copied). First writer
  /// wins; keys without a local entry (a cancelled precompute) are skipped.
  void PublishObjects(const std::vector<SideScoreCache::Key>& keys,
                      bool filtered, const SideScoreCache& local);
  void PublishSubjects(const std::vector<SideScoreCache::Key>& keys,
                       bool filtered, const SideScoreCache& local);

  size_t num_weight_entries() const;
  size_t num_score_entries() const;
  uint64_t weights_hits() const { return weights_hits_n_; }
  uint64_t scores_hits() const { return scores_hits_n_; }

 private:
  using ScoreMap = std::unordered_map<uint64_t, SideScoreCache::EntryPtr>;

  static uint64_t PackKey(const SideScoreCache::Key& key) {
    return (static_cast<uint64_t>(key.second) << 32) |
           static_cast<uint64_t>(key.first);
  }

  size_t Fetch(const std::vector<SideScoreCache::Key>& keys, bool filtered,
               bool object_side, SideScoreCache* local,
               std::vector<SideScoreCache::Key>* missing);
  void Publish(const std::vector<SideScoreCache::Key>& keys, bool filtered,
               bool object_side, const SideScoreCache& local);

  mutable std::mutex mu_;
  std::unordered_map<int, std::shared_ptr<const WeightsEntry>> weights_;
  /// Indexed [object_side][filtered]: the filtered protocol changes an
  /// entry's `excluded` mask, so the two protocols never share entries.
  ScoreMap scores_[2][2];

  Counter* weights_hits_ = nullptr;
  Counter* weights_misses_ = nullptr;
  Counter* scores_hits_ = nullptr;
  Counter* scores_misses_ = nullptr;
  Counter* sketch_hits_ = nullptr;
  Counter* sketch_misses_ = nullptr;
  std::atomic<uint64_t> weights_hits_n_{0};
  std::atomic<uint64_t> scores_hits_n_{0};
};

/// Algorithm 1 line 7 for one strategy: its weights plus both alias
/// samplers. MODEL_SCORE builds its weights from `model`'s score sketch
/// (adaptive/score_sketch.h); every other strategy reads only `kg`, and
/// `model` may be null.
Result<DiscoveryCache::WeightsEntry> ComputeWeightsEntry(
    SamplingStrategy strategy, const Model* model, const TripleStore& kg);

}  // namespace kgfd

#endif  // KGFD_CORE_DISCOVERY_CACHE_H_
