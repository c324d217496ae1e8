#ifndef KGFD_CORE_SIDE_SCORE_CACHE_H_
#define KGFD_CORE_SIDE_SCORE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kg/triple_store.h"
#include "kg/types.h"
#include "kge/model.h"

namespace kgfd {

class CancelContext;
class ThreadPool;

/// Caches ScoreObjects / ScoreSubjects passes so every mesh-grid candidate
/// sharing an (s, r) or (r, o) pair ranks against one scoring pass. Entries
/// are keyed on (entity, relation) — not the bare entity — so one cache can
/// be reused across relations without serving stale scores.
///
/// PrecomputeObjects / PrecomputeSubjects build the entries for a key list
/// up front, scoring kernels::kQueryBlock keys per call through the model's
/// batch API (ScoreObjectsBatch / ScoreSubjectsBatch) and fanning the
/// blocks out on a ThreadPool. Afterwards FindObjects / FindSubjects are
/// read-only and safe to call from many threads concurrently.
///
/// Entries are immutable once built and held by shared_ptr, so a run-local
/// cache and the cross-run DiscoveryCache share one copy of each entry's
/// |E| scores instead of copying them.
class SideScoreCache {
 public:
  struct Entry {
    std::vector<double> scores;
    /// 1 where the entity forms a known-true triple (filtered protocol) and
    /// must not count as a competitor.
    std::vector<char> excluded;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// (entity, relation) pairs addressing object-side entries via the
  /// subject, or subject-side entries via the object.
  using Key = std::pair<EntityId, RelationId>;

  /// Builds the object-side entries for `keys` ((subject, relation) pairs),
  /// skipping keys already cached; the scoring passes run on `pool`
  /// (nullptr = inline). Returns the number of entries computed. When
  /// `cancel` requests a stop, remaining passes are abandoned — entries
  /// already scored stay cached and correct, later keys simply miss.
  size_t PrecomputeObjects(const Model& model, const TripleStore& kg,
                           const std::vector<Key>& keys, bool filtered,
                           ThreadPool* pool,
                           const CancelContext* cancel = nullptr);

  /// Builds the subject-side entries for `keys` ((object, relation) pairs).
  size_t PrecomputeSubjects(const Model& model, const TripleStore& kg,
                            const std::vector<Key>& keys, bool filtered,
                            ThreadPool* pool,
                            const CancelContext* cancel = nullptr);

  /// Read-only lookups; nullptr when the entry was never computed. Safe to
  /// call concurrently as long as no mutating call runs at the same time.
  const Entry* FindObjects(EntityId s, RelationId r) const;
  const Entry* FindSubjects(RelationId r, EntityId o) const;

  /// Seam for DiscoveryCache, on the object side ((subject, relation) key)
  /// or the subject side ((object, relation) key): Share returns the stored
  /// pointer (null when absent), and Insert stores an already-built entry,
  /// keeping the existing one on key collision. Neither copies the entry.
  EntryPtr Share(bool object_side, const Key& key) const;
  void Insert(bool object_side, const Key& key, EntryPtr entry);

  void Clear();

  size_t num_object_entries() const { return maps_[1].size(); }
  size_t num_subject_entries() const { return maps_[0].size(); }

 private:
  using Map = std::unordered_map<uint64_t, EntryPtr>;

  static uint64_t PackKey(const Key& key) {
    return (static_cast<uint64_t>(key.second) << 32) |
           static_cast<uint64_t>(key.first);
  }
  size_t Precompute(bool object_side, const Model& model,
                    const TripleStore& kg, const std::vector<Key>& keys,
                    bool filtered, ThreadPool* pool,
                    const CancelContext* cancel);
  const Entry* Find(bool object_side, const Key& key) const;

  /// Indexed [object_side]: subject-side entries keyed by (object,
  /// relation), object-side entries by (subject, relation).
  Map maps_[2];
};

}  // namespace kgfd

#endif  // KGFD_CORE_SIDE_SCORE_CACHE_H_
