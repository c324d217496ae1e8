#include "core/side_score_cache.h"

#include <algorithm>
#include <unordered_set>

#include "kge/kernels.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace kgfd {

namespace {

/// Shared shape of both Precompute* calls: score the not-yet-cached keys
/// through the model's batch API into fixed slots on the pool, then insert
/// serially (the map itself is not thread-safe).
///
/// Both cache sides store Key as (entity, relation) with exactly the entity
/// the batch API wants (subject for the object side, object for the subject
/// side), so one SideQuery construction serves both; only `fill_excluded`
/// differs. Scoring walks each ParallelFor chunk in kernels::kQueryBlock
/// sub-blocks — one kernel invocation per sub-block instead of one virtual
/// ScoreObjects call per key — with a cancel probe between sub-blocks so a
/// stop request never waits on more than one block of scoring.
template <typename BatchScore, typename FillExcluded>
size_t PrecomputeInto(std::unordered_map<uint64_t, SideScoreCache::Entry>* map,
                      const std::vector<SideScoreCache::Key>& keys,
                      uint64_t (*pack)(const SideScoreCache::Key&),
                      const BatchScore& batch_score,
                      const FillExcluded& fill_excluded, ThreadPool* pool,
                      const CancelContext* cancel) {
  std::vector<const SideScoreCache::Key*> fresh;
  fresh.reserve(keys.size());
  std::unordered_set<uint64_t> batch;  // dedup within this key list too
  for (const SideScoreCache::Key& key : keys) {
    const uint64_t packed = pack(key);
    if (map->find(packed) == map->end() && batch.insert(packed).second) {
      fresh.push_back(&key);
    }
  }
  const bool stoppable = cancel != nullptr && cancel->CanStop();
  std::vector<SideScoreCache::Entry> entries(fresh.size());
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
          batch_score(queries, block_end - block, outs);
          for (size_t i = block; i < block_end; ++i) {
            fill_excluded(*fresh[i], &entries[i]);
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
    map->emplace(pack(*fresh[i]), std::move(entries[i]));
    ++inserted;
  }
  return inserted;
}

}  // namespace

size_t SideScoreCache::PrecomputeObjects(const Model& model,
                                         const TripleStore& kg,
                                         const std::vector<Key>& keys,
                                         bool filtered, ThreadPool* pool,
                                         const CancelContext* cancel) {
  return PrecomputeInto(
      &by_subject_, keys,
      +[](const Key& k) { return PackKey(k.first, k.second); },
      [&](const SideQuery* queries, size_t n,
          std::vector<double>* const* outs) {
        model.ScoreObjectsBatch(queries, n, outs);
      },
      [&](const Key& k, Entry* entry) {
        entry->excluded.assign(entry->scores.size(), 0);
        if (filtered) {
          for (EntityId o : kg.ObjectsOf(k.first, k.second)) {
            entry->excluded[o] = 1;
          }
        }
      },
      pool, cancel);
}

size_t SideScoreCache::PrecomputeSubjects(const Model& model,
                                          const TripleStore& kg,
                                          const std::vector<Key>& keys,
                                          bool filtered, ThreadPool* pool,
                                          const CancelContext* cancel) {
  return PrecomputeInto(
      &by_object_, keys,
      +[](const Key& k) { return PackKey(k.first, k.second); },
      [&](const SideQuery* queries, size_t n,
          std::vector<double>* const* outs) {
        model.ScoreSubjectsBatch(queries, n, outs);
      },
      [&](const Key& k, Entry* entry) {
        entry->excluded.assign(entry->scores.size(), 0);
        if (filtered) {
          for (EntityId s : kg.SubjectsOf(k.second, k.first)) {
            entry->excluded[s] = 1;
          }
        }
      },
      pool, cancel);
}

const SideScoreCache::Entry* SideScoreCache::FindObjects(EntityId s,
                                                         RelationId r) const {
  auto it = by_subject_.find(PackKey(s, r));
  return it == by_subject_.end() ? nullptr : &it->second;
}

const SideScoreCache::Entry* SideScoreCache::FindSubjects(RelationId r,
                                                          EntityId o) const {
  auto it = by_object_.find(PackKey(o, r));
  return it == by_object_.end() ? nullptr : &it->second;
}

void SideScoreCache::InsertObjects(EntityId s, RelationId r, Entry entry) {
  by_subject_.emplace(PackKey(s, r), std::move(entry));
}

void SideScoreCache::InsertSubjects(RelationId r, EntityId o, Entry entry) {
  by_object_.emplace(PackKey(o, r), std::move(entry));
}

void SideScoreCache::Clear() {
  by_subject_.clear();
  by_object_.clear();
}

}  // namespace kgfd
