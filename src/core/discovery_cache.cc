#include "core/discovery_cache.h"

#include "adaptive/score_sketch.h"
#include "obs/metrics.h"

namespace kgfd {

DiscoveryCache::DiscoveryCache(MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    weights_hits_ = metrics->GetCounter(kSharedWeightsHitsCounter);
    weights_misses_ = metrics->GetCounter(kSharedWeightsMissesCounter);
    scores_hits_ = metrics->GetCounter(kSharedScoresHitsCounter);
    scores_misses_ = metrics->GetCounter(kSharedScoresMissesCounter);
    sketch_hits_ = metrics->GetCounter(kSketchHitsCounter);
    sketch_misses_ = metrics->GetCounter(kSketchMissesCounter);
  }
}

Result<DiscoveryCache::WeightsEntry> ComputeWeightsEntry(
    SamplingStrategy strategy, const Model* model, const TripleStore& kg) {
  DiscoveryCache::WeightsEntry entry;
  KGFD_ASSIGN_OR_RETURN(
      entry.weights,
      strategy == SamplingStrategy::kModelScore && model != nullptr
          ? ComputeModelScoreWeights(*model, kg)
          : ComputeStrategyWeights(strategy, kg));
  KGFD_ASSIGN_OR_RETURN(entry.subject_sampler,
                        AliasSampler::Build(entry.weights.subject_weights));
  KGFD_ASSIGN_OR_RETURN(entry.object_sampler,
                        AliasSampler::Build(entry.weights.object_weights));
  return entry;
}

Result<std::shared_ptr<const DiscoveryCache::WeightsEntry>>
DiscoveryCache::GetOrComputeWeights(SamplingStrategy strategy,
                                    const TripleStore& kg,
                                    const Model* model) {
  const int key = static_cast<int>(strategy);
  const bool sketch = strategy == SamplingStrategy::kModelScore;
  Counter* const hits = sketch ? sketch_hits_ : weights_hits_;
  Counter* const misses = sketch ? sketch_misses_ : weights_misses_;
  // Computed under the lock: concurrent relations requesting the same
  // strategy serialize on the first computation instead of racing N copies
  // of an expensive metric sweep (the sketch's probe sweep most of all),
  // and every later caller is a pure lookup.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = weights_.find(key);
  if (it != weights_.end()) {
    weights_hits_n_.fetch_add(1, std::memory_order_relaxed);
    if (hits != nullptr) hits->Increment();
    return it->second;
  }
  if (misses != nullptr) misses->Increment();
  KGFD_ASSIGN_OR_RETURN(WeightsEntry entry,
                        ComputeWeightsEntry(strategy, model, kg));
  auto shared = std::make_shared<const WeightsEntry>(std::move(entry));
  weights_.emplace(key, shared);
  return shared;
}

size_t DiscoveryCache::Fetch(const std::vector<SideScoreCache::Key>& keys,
                             bool filtered, bool object_side,
                             SideScoreCache* local,
                             std::vector<SideScoreCache::Key>* missing) {
  // Entries are immutable once published, so the consumer holds the very
  // pointer the store holds; nothing is copied.
  size_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const ScoreMap& map = scores_[object_side ? 1 : 0][filtered ? 1 : 0];
    for (const SideScoreCache::Key& key : keys) {
      auto it = map.find(PackKey(key));
      if (it != map.end()) {
        local->Insert(object_side, key, it->second);
        ++hits;
      } else if (missing != nullptr) {
        missing->push_back(key);
      }
    }
  }
  scores_hits_n_.fetch_add(hits, std::memory_order_relaxed);
  if (scores_hits_ != nullptr && hits > 0) scores_hits_->Increment(hits);
  const size_t misses = keys.size() - hits;
  if (scores_misses_ != nullptr && misses > 0) {
    scores_misses_->Increment(misses);
  }
  return hits;
}

void DiscoveryCache::Publish(const std::vector<SideScoreCache::Key>& keys,
                             bool filtered, bool object_side,
                             const SideScoreCache& local) {
  std::lock_guard<std::mutex> lock(mu_);
  ScoreMap& map = scores_[object_side ? 1 : 0][filtered ? 1 : 0];
  for (const SideScoreCache::Key& key : keys) {
    SideScoreCache::EntryPtr entry = local.Share(object_side, key);
    if (entry == nullptr) continue;  // cancelled before this key was scored
    map.emplace(PackKey(key), std::move(entry));  // first writer wins
  }
}

size_t DiscoveryCache::FetchObjects(
    const std::vector<SideScoreCache::Key>& keys, bool filtered,
    SideScoreCache* local, std::vector<SideScoreCache::Key>* missing) {
  return Fetch(keys, filtered, /*object_side=*/true, local, missing);
}

size_t DiscoveryCache::FetchSubjects(
    const std::vector<SideScoreCache::Key>& keys, bool filtered,
    SideScoreCache* local, std::vector<SideScoreCache::Key>* missing) {
  return Fetch(keys, filtered, /*object_side=*/false, local, missing);
}

void DiscoveryCache::PublishObjects(
    const std::vector<SideScoreCache::Key>& keys, bool filtered,
    const SideScoreCache& local) {
  Publish(keys, filtered, /*object_side=*/true, local);
}

void DiscoveryCache::PublishSubjects(
    const std::vector<SideScoreCache::Key>& keys, bool filtered,
    const SideScoreCache& local) {
  Publish(keys, filtered, /*object_side=*/false, local);
}

size_t DiscoveryCache::num_weight_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weights_.size();
}

size_t DiscoveryCache::num_score_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scores_[0][0].size() + scores_[0][1].size() + scores_[1][0].size() +
         scores_[1][1].size();
}

}  // namespace kgfd
