#include "core/side_score_cache.h"

#include <algorithm>
#include <unordered_set>

#include "kge/kernels.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace kgfd {

/// Shared shape of both Precompute* calls: score the not-yet-cached keys
/// through the model's batch API into fixed slots on the pool, then insert
/// serially (the map itself is not thread-safe).
///
/// Both cache sides store Key as (entity, relation) with exactly the entity
/// the batch API wants (subject for the object side, object for the subject
/// side), so one SideQuery construction serves both. Scoring walks each
/// ParallelFor chunk in kernels::kQueryBlock sub-blocks — one kernel
/// invocation per sub-block instead of one virtual ScoreObjects call per
/// key — with a cancel probe between sub-blocks so a stop request never
/// waits on more than one block of scoring.
size_t SideScoreCache::Precompute(bool object_side, const Model& model,
                                  const TripleStore& kg,
                                  const std::vector<Key>& keys, bool filtered,
                                  ThreadPool* pool,
                                  const CancelContext* cancel) {
  Map& map = maps_[object_side ? 1 : 0];
  std::vector<const Key*> fresh;
  fresh.reserve(keys.size());
  std::unordered_set<uint64_t> batch;  // dedup within this key list too
  for (const Key& key : keys) {
    const uint64_t packed = PackKey(key);
    if (map.find(packed) == map.end() && batch.insert(packed).second) {
      fresh.push_back(&key);
    }
  }
  const bool stoppable = cancel != nullptr && cancel->CanStop();
  std::vector<Entry> entries(fresh.size());
  ParallelFor(
      pool, fresh.size(),
      [&](size_t begin, size_t end) {
        SideQuery queries[kernels::kQueryBlock];
        std::vector<double>* outs[kernels::kQueryBlock];
        for (size_t block = begin; block < end;
             block += kernels::kQueryBlock) {
          if (stoppable && cancel->StopReason() != StoppedReason::kNone) {
            return;
          }
          const size_t block_end =
              std::min(block + kernels::kQueryBlock, end);
          for (size_t i = block; i < block_end; ++i) {
            queries[i - block] = SideQuery{fresh[i]->first, fresh[i]->second};
            outs[i - block] = &entries[i].scores;
          }
          if (object_side) {
            model.ScoreObjectsBatch(queries, block_end - block, outs);
          } else {
            model.ScoreSubjectsBatch(queries, block_end - block, outs);
          }
          for (size_t i = block; i < block_end; ++i) {
            Entry& entry = entries[i];
            entry.excluded.assign(entry.scores.size(), 0);
            if (!filtered) continue;
            const Key& k = *fresh[i];
            for (EntityId e : object_side ? kg.ObjectsOf(k.first, k.second)
                                          : kg.SubjectsOf(k.second, k.first)) {
              entry.excluded[e] = 1;
            }
          }
        }
      },
      cancel, kernels::kQueryBlock);
  // A cancelled ParallelFor leaves later slots untouched; only insert
  // entries that were actually scored so lookups for the rest keep missing
  // (an empty cached entry would read as "no competitors").
  size_t inserted = 0;
  for (size_t i = 0; i < fresh.size(); ++i) {
    if (entries[i].scores.empty()) continue;
    map.emplace(PackKey(*fresh[i]),
                std::make_shared<const Entry>(std::move(entries[i])));
    ++inserted;
  }
  return inserted;
}

size_t SideScoreCache::PrecomputeObjects(const Model& model,
                                         const TripleStore& kg,
                                         const std::vector<Key>& keys,
                                         bool filtered, ThreadPool* pool,
                                         const CancelContext* cancel) {
  return Precompute(/*object_side=*/true, model, kg, keys, filtered, pool,
                    cancel);
}

size_t SideScoreCache::PrecomputeSubjects(const Model& model,
                                          const TripleStore& kg,
                                          const std::vector<Key>& keys,
                                          bool filtered, ThreadPool* pool,
                                          const CancelContext* cancel) {
  return Precompute(/*object_side=*/false, model, kg, keys, filtered, pool,
                    cancel);
}

const SideScoreCache::Entry* SideScoreCache::FindObjects(EntityId s,
                                                         RelationId r) const {
  return Find(/*object_side=*/true, {s, r});
}

const SideScoreCache::Entry* SideScoreCache::FindSubjects(RelationId r,
                                                          EntityId o) const {
  return Find(/*object_side=*/false, {o, r});
}

const SideScoreCache::Entry* SideScoreCache::Find(bool object_side,
                                                  const Key& key) const {
  const Map& map = maps_[object_side ? 1 : 0];
  auto it = map.find(PackKey(key));
  return it == map.end() ? nullptr : it->second.get();
}

SideScoreCache::EntryPtr SideScoreCache::Share(bool object_side,
                                               const Key& key) const {
  const Map& map = maps_[object_side ? 1 : 0];
  auto it = map.find(PackKey(key));
  return it == map.end() ? nullptr : it->second;
}

void SideScoreCache::Insert(bool object_side, const Key& key,
                            EntryPtr entry) {
  maps_[object_side ? 1 : 0].emplace(PackKey(key), std::move(entry));
}

void SideScoreCache::Clear() {
  maps_[0].clear();
  maps_[1].clear();
}

}  // namespace kgfd
