#include "graph/adjacency.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.h"

namespace kgfd {
namespace {

using Edge = std::pair<EntityId, EntityId>;

TEST(AdjacencyTest, FromEdgesBasic) {
  const Adjacency adj = Adjacency::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(adj.num_nodes(), 4u);
  EXPECT_EQ(adj.num_edges(), 3u);
  EXPECT_EQ(adj.Degree(0), 1u);
  EXPECT_EQ(adj.Degree(1), 2u);
  EXPECT_TRUE(adj.HasEdge(0, 1));
  EXPECT_TRUE(adj.HasEdge(1, 0));  // symmetric
  EXPECT_FALSE(adj.HasEdge(0, 2));
}

TEST(AdjacencyTest, DropsSelfLoops) {
  const Adjacency adj = Adjacency::FromEdges(3, {{0, 0}, {0, 1}});
  EXPECT_EQ(adj.num_edges(), 1u);
  EXPECT_FALSE(adj.HasEdge(0, 0));
}

TEST(AdjacencyTest, CollapsesParallelAndReverseEdges) {
  const Adjacency adj =
      Adjacency::FromEdges(3, {{0, 1}, {0, 1}, {1, 0}, {1, 2}});
  EXPECT_EQ(adj.num_edges(), 2u);
  EXPECT_EQ(adj.Degree(0), 1u);
  EXPECT_EQ(adj.Degree(1), 2u);
}

TEST(AdjacencyTest, NeighborListsAreSortedAndUnique) {
  const Adjacency adj =
      Adjacency::FromEdges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 0}});
  std::vector<EntityId> neighbors(adj.NeighborsBegin(2),
                                  adj.NeighborsEnd(2));
  EXPECT_EQ(neighbors, (std::vector<EntityId>{0, 3, 4}));
}

TEST(AdjacencyTest, IgnoresOutOfRangeEdges) {
  const Adjacency adj = Adjacency::FromEdges(2, {{0, 1}, {0, 7}});
  EXPECT_EQ(adj.num_edges(), 1u);
}

TEST(AdjacencyTest, IsolatedNodesHaveZeroDegree) {
  const Adjacency adj = Adjacency::FromEdges(5, {{0, 1}});
  EXPECT_EQ(adj.Degree(2), 0u);
  EXPECT_EQ(adj.NeighborsBegin(2), adj.NeighborsEnd(2));
}

TEST(AdjacencyTest, HasEdgeOutOfRangeIsFalse) {
  const Adjacency adj = Adjacency::FromEdges(2, {{0, 1}});
  EXPECT_FALSE(adj.HasEdge(9, 0));
}

TEST(AdjacencyTest, FromTripleStoreProjectsHomogeneously) {
  // Two relations between the same pair collapse into one undirected edge;
  // a self-loop triple is dropped.
  TripleStore store(4, 3);
  ASSERT_TRUE(
      store.AddAll({{0, 0, 1}, {1, 1, 0}, {0, 2, 1}, {2, 0, 2}, {2, 1, 3}})
          .ok());
  const Adjacency adj = Adjacency::FromTripleStore(store);
  EXPECT_EQ(adj.num_edges(), 2u);  // {0,1} and {2,3}
  EXPECT_TRUE(adj.HasEdge(0, 1));
  EXPECT_TRUE(adj.HasEdge(2, 3));
  EXPECT_FALSE(adj.HasEdge(2, 2));
}

std::vector<std::vector<EntityId>> Rows(const Adjacency& adj) {
  std::vector<std::vector<EntityId>> rows;
  for (EntityId v = 0; v < adj.num_nodes(); ++v) {
    rows.emplace_back(adj.NeighborsBegin(v), adj.NeighborsEnd(v));
  }
  return rows;
}

TEST(AdjacencyTest, TripleStoreAndEdgeBuildsMatchSetProjection) {
  // Random triples over 4 relations plus hand-placed parallel (same pair,
  // two relations), reversed (o, s) and self-loop triples.
  const size_t n = 40;
  TripleStore store(n, 4);
  ASSERT_TRUE(store
                  .AddAll({{3, 0, 7}, {3, 1, 7}, {7, 2, 3}, {5, 0, 5},
                           {5, 3, 5}, {39, 1, 0}, {0, 2, 39}})
                  .ok());
  Rng rng(17);
  for (size_t i = 0; i < 300; ++i) {
    const Triple t{static_cast<EntityId>(rng.UniformInt(n)),
                   static_cast<RelationId>(rng.UniformInt(4)),
                   static_cast<EntityId>(rng.UniformInt(n))};
    ASSERT_TRUE(store.Add(t).ok());
  }
  std::vector<Edge> pairs;
  std::vector<std::set<EntityId>> projection(n);
  for (const Triple& t : store.triples()) {
    pairs.push_back({t.subject, t.object});
    if (t.subject == t.object) continue;
    projection[t.subject].insert(t.object);
    projection[t.object].insert(t.subject);
  }
  std::vector<std::vector<EntityId>> expected;
  for (const std::set<EntityId>& row : projection) {
    expected.emplace_back(row.begin(), row.end());
  }

  const Adjacency from_store = Adjacency::FromTripleStore(store);
  const Adjacency from_edges = Adjacency::FromEdges(n, pairs);
  EXPECT_EQ(Rows(from_store), expected);
  EXPECT_EQ(Rows(from_edges), expected);
  size_t ends = 0;
  for (const auto& row : expected) ends += row.size();
  EXPECT_EQ(from_store.num_edges(), ends / 2);
  EXPECT_EQ(from_edges.num_edges(), ends / 2);
}

TEST(AdjacencyTest, EmptyGraph) {
  const Adjacency adj = Adjacency::FromEdges(3, {});
  EXPECT_EQ(adj.num_nodes(), 3u);
  EXPECT_EQ(adj.num_edges(), 0u);
}

}  // namespace
}  // namespace kgfd
