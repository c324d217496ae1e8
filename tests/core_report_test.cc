#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "kg/relation_stats.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

DiscoveredFact MakeFact(EntityId s, RelationId r, EntityId o, double rank) {
  DiscoveredFact f;
  f.triple = {s, r, o};
  f.rank = rank;
  return f;
}

TEST(SummarizeByRelationTest, EmptyInput) {
  EXPECT_TRUE(SummarizeByRelation({}).empty());
}

TEST(SummarizeByRelationTest, GroupsAndAggregates) {
  const std::vector<DiscoveredFact> facts = {
      MakeFact(0, 1, 2, 2.0), MakeFact(1, 1, 3, 4.0),
      MakeFact(2, 0, 4, 1.0)};
  const auto summaries = SummarizeByRelation(facts);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].relation, 0u);
  EXPECT_EQ(summaries[0].num_facts, 1u);
  EXPECT_DOUBLE_EQ(summaries[0].best_rank, 1.0);
  EXPECT_DOUBLE_EQ(summaries[0].mrr, 1.0);
  EXPECT_EQ(summaries[1].relation, 1u);
  EXPECT_EQ(summaries[1].num_facts, 2u);
  EXPECT_DOUBLE_EQ(summaries[1].best_rank, 2.0);
  EXPECT_DOUBLE_EQ(summaries[1].mean_rank, 3.0);
  EXPECT_DOUBLE_EQ(summaries[1].mrr, (0.5 + 0.25) / 2.0);
}

TEST(FactsTsvTest, RoundTripsWithNames) {
  Vocabulary entities;
  Vocabulary relations;
  entities.AddOrGet("alice");
  entities.AddOrGet("bob");
  relations.AddOrGet("knows");
  const std::vector<DiscoveredFact> facts = {MakeFact(0, 0, 1, 3.5),
                                             MakeFact(1, 0, 0, 12.0)};
  const std::string path = ScratchPath("facts.tsv");
  ASSERT_TRUE(WriteFactsTsv(path, facts, entities, relations).ok());

  Vocabulary e2, r2;
  auto loaded = ReadFactsTsv(path, &e2, &r2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(e2.Name(loaded.value()[0].triple.subject).value(), "alice");
  EXPECT_EQ(r2.Name(loaded.value()[0].triple.relation).value(), "knows");
  EXPECT_DOUBLE_EQ(loaded.value()[0].rank, 3.5);
  EXPECT_DOUBLE_EQ(loaded.value()[1].rank, 12.0);
  std::remove(path.c_str());
}

TEST(FactsTsvTest, ReadRejectsMalformedRows) {
  const std::string path = ScratchPath("bad_facts.tsv");
  for (const char* row : {"a\tr\tb\n",       // missing rank column
                          "a\tr\tb\t12x\n"}) {  // rank with trailing junk
    {
      std::ofstream out(path);
      out << row;
    }
    Vocabulary e, r;
    EXPECT_FALSE(ReadFactsTsv(path, &e, &r).ok()) << row;
  }
  std::remove(path.c_str());
}

TEST(FactsTsvTest, MissingFileIsIoError) {
  Vocabulary e, r;
  EXPECT_FALSE(ReadFactsTsv("/no/such/facts.tsv", &e, &r).ok());
}

TEST(RelationStatsTest, CardinalityClasses) {
  TripleStore store(12, 4);
  // r0: 1-1 (distinct pairs).
  ASSERT_TRUE(store.AddAll({{0, 0, 1}, {2, 0, 3}}).ok());
  // r1: 1-N (head 0 fans out).
  ASSERT_TRUE(store.AddAll({{0, 1, 1}, {0, 1, 2}, {0, 1, 3}}).ok());
  // r2: N-1 (tail 5 fans in).
  ASSERT_TRUE(store.AddAll({{1, 2, 5}, {2, 2, 5}, {3, 2, 5}}).ok());
  // r3: N-N.
  ASSERT_TRUE(store.AddAll({{0, 3, 1}, {0, 3, 2}, {1, 3, 1}, {1, 3, 2}})
                  .ok());
  const auto stats = ComputeRelationStats(store);
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].Cardinality(), "1-1");
  EXPECT_EQ(stats[1].Cardinality(), "1-N");
  EXPECT_EQ(stats[2].Cardinality(), "N-1");
  EXPECT_EQ(stats[3].Cardinality(), "N-N");
}

TEST(RelationStatsTest, CountsAndMeans) {
  TripleStore store(6, 2);
  ASSERT_TRUE(store.AddAll({{0, 0, 1}, {0, 0, 2}, {3, 0, 2}}).ok());
  const auto stats = ComputeRelationStats(store);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].relation, 0u);
  EXPECT_EQ(stats[0].num_triples, 3u);
  EXPECT_EQ(stats[0].distinct_subjects, 2u);
  EXPECT_EQ(stats[0].distinct_objects, 2u);
  // tph: head 0 -> {1,2}, head 3 -> {2}: (2+1)/2 = 1.5.
  EXPECT_DOUBLE_EQ(stats[0].tails_per_head, 1.5);
  // hpt: tail 1 -> {0}, tail 2 -> {0,3}: (1+2)/2 = 1.5.
  EXPECT_DOUBLE_EQ(stats[0].heads_per_tail, 1.5);
}

TEST(RelationStatsTest, SkipsUnusedRelations) {
  TripleStore store(4, 5);
  ASSERT_TRUE(store.Add({0, 2, 1}).ok());
  const auto stats = ComputeRelationStats(store);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].relation, 2u);
}

}  // namespace
}  // namespace kgfd
