#include "core/side_score_cache.h"

#include <gtest/gtest.h>

#include <atomic>

#include "util/thread_pool.h"

namespace kgfd {
namespace {

/// Counts scoring passes and makes scores depend on the relation, so a
/// cache that ignores the relation in its key is caught immediately.
class CountingModel : public Model {
 public:
  CountingModel(size_t entities, size_t relations)
      : entities_(entities), relations_(relations), dummy_(1, 1) {}

  ModelKind kind() const override { return ModelKind::kDistMult; }
  size_t num_entities() const override { return entities_; }
  size_t num_relations() const override { return relations_; }
  size_t embedding_dim() const override { return 2; }

  double Score(const Triple& t) const override {
    return static_cast<double>(t.relation * 100 + t.object) -
           0.01 * static_cast<double>(t.subject);
  }
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override {
    for (size_t q = 0; q < num_queries; ++q) {
      object_passes.fetch_add(1);
      const auto [s, r] = queries[q];
      outs[q]->resize(entities_);
      for (EntityId o = 0; o < entities_; ++o) {
        (*outs[q])[o] = Score({s, r, o});
      }
    }
  }
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override {
    for (size_t q = 0; q < num_queries; ++q) {
      subject_passes.fetch_add(1);
      const auto [o, r] = queries[q];
      outs[q]->resize(entities_);
      for (EntityId s = 0; s < entities_; ++s) {
        (*outs[q])[s] = Score({s, r, o});
      }
    }
  }
  void AccumulateScoreGradient(const Triple&, double,
                               GradientBatch*) override {}
  std::vector<NamedTensor> Parameters() override {
    return {{"dummy", &dummy_}};
  }
  void InitParameters(Rng*) override {}

  mutable std::atomic<size_t> object_passes{0};
  mutable std::atomic<size_t> subject_passes{0};

 private:
  size_t entities_;
  size_t relations_;
  Tensor dummy_;
};

TEST(SideScoreCacheTest, PrecomputeCachesByKey) {
  CountingModel model(6, 2);
  TripleStore kg(6, 2);
  SideScoreCache cache;
  EXPECT_EQ(cache.PrecomputeObjects(model, kg, {{1, 0}}, false, nullptr), 1u);
  const SideScoreCache::Entry* a = cache.FindObjects(1, 0);
  EXPECT_EQ(cache.PrecomputeObjects(model, kg, {{1, 0}}, false, nullptr), 0u);
  EXPECT_EQ(cache.FindObjects(1, 0), a);
  EXPECT_EQ(model.object_passes.load(), 1u);
  EXPECT_EQ(cache.num_object_entries(), 1u);
}

TEST(SideScoreCacheTest, KeyedOnEntityAndRelation) {
  // Regression: entries used to be keyed on the bare entity, so reusing a
  // cache across relations served relation-0 scores for relation-1 lookups.
  CountingModel model(6, 2);
  TripleStore kg(6, 2);
  SideScoreCache cache;
  cache.PrecomputeObjects(model, kg, {{1, 0}, {1, 1}}, false, nullptr);
  const SideScoreCache::Entry* r0 = cache.FindObjects(1, 0);
  const SideScoreCache::Entry* r1 = cache.FindObjects(1, 1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_NE(r0, r1);
  EXPECT_EQ(model.object_passes.load(), 2u);
  // Scores actually reflect each entry's relation.
  EXPECT_DOUBLE_EQ(r0->scores[3], model.Score({1, 0, 3}));
  EXPECT_DOUBLE_EQ(r1->scores[3], model.Score({1, 1, 3}));
  // Same story on the subject side; its keys are (object, relation).
  cache.PrecomputeSubjects(model, kg, {{2, 0}, {2, 1}}, false, nullptr);
  const SideScoreCache::Entry* s0 = cache.FindSubjects(0, 2);
  const SideScoreCache::Entry* s1 = cache.FindSubjects(1, 2);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_DOUBLE_EQ(s0->scores[4], model.Score({4, 0, 2}));
  EXPECT_DOUBLE_EQ(s1->scores[4], model.Score({4, 1, 2}));
}

TEST(SideScoreCacheTest, FilteredEntriesMarkKnownTriples) {
  CountingModel model(6, 1);
  TripleStore kg(6, 1);
  ASSERT_TRUE(kg.AddAll({{1, 0, 2}, {1, 0, 4}}).ok());
  SideScoreCache cache;
  cache.PrecomputeObjects(model, kg, {{1, 0}}, true, nullptr);
  const SideScoreCache::Entry* entry = cache.FindObjects(1, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->excluded[2], 1);
  EXPECT_EQ(entry->excluded[4], 1);
  EXPECT_EQ(entry->excluded[3], 0);
  // Unfiltered entries exclude nothing.
  cache.Clear();
  cache.PrecomputeObjects(model, kg, {{1, 0}}, false, nullptr);
  EXPECT_EQ(cache.FindObjects(1, 0)->excluded,
            std::vector<char>(6, 0));
}

TEST(SideScoreCacheTest, PrecomputeMatchesDirectScoringAndDedups) {
  CountingModel model(8, 2);
  TripleStore kg(8, 2);
  ASSERT_TRUE(kg.Add({0, 1, 5}).ok());
  std::vector<double> want;
  model.ScoreObjects(0, 1, &want);

  SideScoreCache cache;
  ThreadPool pool(4);
  // Duplicate keys and an already-cached key must each compute once.
  const std::vector<SideScoreCache::Key> keys = {
      {0, 1}, {2, 1}, {0, 1}, {3, 0}};
  model.object_passes.store(0);
  EXPECT_EQ(cache.PrecomputeObjects(model, kg, keys, true, &pool), 3u);
  EXPECT_EQ(model.object_passes.load(), 3u);
  EXPECT_EQ(cache.PrecomputeObjects(model, kg, keys, true, &pool), 0u);
  EXPECT_EQ(model.object_passes.load(), 3u);

  const SideScoreCache::Entry* got = cache.FindObjects(0, 1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->scores, want);
  std::vector<char> want_excluded(8, 0);
  want_excluded[5] = 1;  // (0, 1, 5) is a known triple
  EXPECT_EQ(got->excluded, want_excluded);
  EXPECT_EQ(cache.FindObjects(4, 1), nullptr);

  model.subject_passes.store(0);
  EXPECT_EQ(cache.PrecomputeSubjects(model, kg, {{5, 1}, {6, 0}}, true, &pool),
            2u);
  const SideScoreCache::Entry* subj = cache.FindSubjects(1, 5);
  ASSERT_NE(subj, nullptr);
  EXPECT_EQ(subj->excluded[0], 1);  // (0, 1, 5) is a known triple
  EXPECT_EQ(cache.FindSubjects(0, 5), nullptr);
}

TEST(SideScoreCacheTest, ClearForgetsEntries) {
  CountingModel model(4, 1);
  TripleStore kg(4, 1);
  SideScoreCache cache;
  cache.PrecomputeObjects(model, kg, {{0, 0}}, false, nullptr);
  cache.Clear();
  EXPECT_EQ(cache.FindObjects(0, 0), nullptr);
  cache.PrecomputeObjects(model, kg, {{0, 0}}, false, nullptr);
  EXPECT_EQ(model.object_passes.load(), 2u);
}

}  // namespace
}  // namespace kgfd
