#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "graph/adjacency.h"
#include "kg/synthetic.h"
#include "util/rng.h"

namespace kgfd {
namespace {

using Edge = std::pair<EntityId, EntityId>;

Adjacency Triangle() {
  return Adjacency::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
}

Adjacency Square() {
  return Adjacency::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
}

/// Star with center 0 and 4 leaves — the paper's example of a popular node
/// with clustering coefficient zero.
Adjacency Star() {
  return Adjacency::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
}

Adjacency Complete(size_t n) {
  std::vector<Edge> edges;
  for (EntityId u = 0; u < n; ++u) {
    for (EntityId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Adjacency::FromEdges(n, edges);
}

Adjacency RandomGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> e;
  for (size_t i = 0; i < edges; ++i) {
    e.push_back({static_cast<EntityId>(rng.UniformInt(n)),
                 static_cast<EntityId>(rng.UniformInt(n))});
  }
  return Adjacency::FromEdges(n, e);
}

TEST(TriangleTest, SingleTriangle) {
  EXPECT_EQ(LocalTriangleCounts(Triangle()),
            (std::vector<uint64_t>{1, 1, 1}));
}

TEST(TriangleTest, SquareHasNoTriangles) {
  EXPECT_EQ(LocalTriangleCounts(Square()),
            (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(TriangleTest, StarHasNoTriangles) {
  for (uint64_t t : LocalTriangleCounts(Star())) EXPECT_EQ(t, 0u);
}

TEST(TriangleTest, CompleteGraphK5) {
  // In K5 each node participates in C(4,2) = 6 triangles.
  for (uint64_t t : LocalTriangleCounts(Complete(5))) EXPECT_EQ(t, 6u);
}

TEST(TriangleTest, EmptyGraph) {
  const Adjacency adj = Adjacency::FromEdges(4, {});
  EXPECT_EQ(LocalTriangleCounts(adj), (std::vector<uint64_t>(4, 0)));
}

TEST(ClusteringTest, TriangleIsFullyClustered) {
  for (double c : LocalClusteringCoefficients(Triangle())) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
}

TEST(ClusteringTest, StarCenterIsZero) {
  const std::vector<double> c = LocalClusteringCoefficients(Star());
  EXPECT_DOUBLE_EQ(c[0], 0.0);  // popular but unclustered (paper §4.2.2)
  for (size_t i = 1; i < c.size(); ++i) EXPECT_DOUBLE_EQ(c[i], 0.0);
}

TEST(ClusteringTest, DegreeOneNodesAreZero) {
  const Adjacency adj = Adjacency::FromEdges(2, {{0, 1}});
  EXPECT_EQ(LocalClusteringCoefficients(adj),
            (std::vector<double>{0.0, 0.0}));
}

TEST(ClusteringTest, KnownPartialValue) {
  // Triangle 0-1-2 plus pendant edge 2-3: c(2) = 2*1/(3*2) = 1/3.
  const Adjacency adj =
      Adjacency::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  const std::vector<double> c = LocalClusteringCoefficients(adj);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_NEAR(c[2], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(c[3], 0.0);
}

TEST(ClusteringTest, AverageMatchesManualMean) {
  const Adjacency adj =
      Adjacency::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  EXPECT_NEAR(AverageClusteringCoefficient(adj), (1.0 + 1.0 + 1.0 / 3.0) / 4.0,
              1e-12);
}

TEST(SquaresTest, PlainSquareGraph) {
  // Every node of a 4-cycle: one square closed, and per NetworkX
  // square_clustering the value is 1.0 (no unclosed potential).
  for (double c : SquareClusteringCoefficients(Square())) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
}

TEST(SquaresTest, TriangleHasNoSquares) {
  for (double c : SquareClusteringCoefficients(Triangle())) {
    EXPECT_DOUBLE_EQ(c, 0.0);
  }
}

TEST(SquaresTest, StarHasNoSquares) {
  for (double c : SquareClusteringCoefficients(Star())) {
    EXPECT_DOUBLE_EQ(c, 0.0);
  }
}

TEST(DegreesTest, MatchesAdjacency) {
  const Adjacency adj = Star();
  EXPECT_EQ(Degrees(adj), (std::vector<uint64_t>{4, 1, 1, 1, 1}));
}

/// Property sweep: the optimized implementations agree with the literal
/// brute-force definitions on random graphs of varying density.
struct RandomGraphParam {
  size_t nodes;
  size_t edges;
  uint64_t seed;
};

class GraphMetricsPropertyTest
    : public ::testing::TestWithParam<RandomGraphParam> {};

TEST_P(GraphMetricsPropertyTest, TrianglesMatchBruteForce) {
  const RandomGraphParam& p = GetParam();
  const Adjacency adj = RandomGraph(p.nodes, p.edges, p.seed);
  EXPECT_EQ(LocalTriangleCounts(adj),
            reference::LocalTriangleCountsBruteForce(adj));
}

TEST_P(GraphMetricsPropertyTest, SquaresMatchBruteForce) {
  const RandomGraphParam& p = GetParam();
  const Adjacency adj = RandomGraph(p.nodes, p.edges, p.seed);
  const std::vector<double> fast = SquareClusteringCoefficients(adj);
  const std::vector<double> slow =
      reference::SquareClusteringCoefficientsBruteForce(adj);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9) << "node " << i;
  }
}

TEST_P(GraphMetricsPropertyTest, ClusteringCoefficientInUnitInterval) {
  const RandomGraphParam& p = GetParam();
  const Adjacency adj = RandomGraph(p.nodes, p.edges, p.seed);
  for (double c : LocalClusteringCoefficients(adj)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  for (double c : SquareClusteringCoefficients(adj)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(GraphMetricsPropertyTest, TriangleSumIsThreeTimesTriangleCount) {
  const RandomGraphParam& p = GetParam();
  const Adjacency adj = RandomGraph(p.nodes, p.edges, p.seed);
  uint64_t sum = 0;
  for (uint64_t t : LocalTriangleCounts(adj)) sum += t;
  EXPECT_EQ(sum % 3, 0u);  // every triangle counted at its three corners
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GraphMetricsPropertyTest,
    ::testing::Values(RandomGraphParam{10, 15, 1},
                      RandomGraphParam{20, 60, 2},
                      RandomGraphParam{30, 40, 3},
                      RandomGraphParam{30, 200, 4},
                      RandomGraphParam{50, 100, 5},
                      RandomGraphParam{50, 400, 6},
                      RandomGraphParam{80, 160, 7},
                      RandomGraphParam{15, 105, 8}),  // near-complete
    [](const ::testing::TestParamInfo<RandomGraphParam>& info) {
      return "n" + std::to_string(info.param.nodes) + "_e" +
             std::to_string(info.param.edges) + "_s" +
             std::to_string(info.param.seed);
    });

/// Graphs whose (degree, id) order differs from id order, which is what the
/// degree-ordered triangle count orients edges by.
struct GraphShape {
  const char* name;
  Adjacency (*make)();
};

/// Prints the shape by name, so test ids do not carry pointer bytes.
void PrintTo(const GraphShape& shape, std::ostream* os) { *os << shape.name; }

/// A hub with the highest id joined to every node, plus a K6 on the lowest
/// ids (every K6 triangle also closes through the hub) and pendant leaves.
Adjacency HubPlusClique() {
  const EntityId n = 30;
  const EntityId hub = n - 1;
  std::vector<Edge> edges;
  for (EntityId u = 0; u < 6; ++u) {
    for (EntityId v = u + 1; v < 6; ++v) edges.push_back({v, u});
  }
  for (EntityId v = 0; v < hub; ++v) edges.push_back({hub, v});
  edges.push_back({20, 21});
  return Adjacency::FromEdges(n, edges);
}

/// Circulant graph: every node has degree 6 (i ~ i±1, i±2, i±3), so the
/// orientation falls back to id order everywhere; dense in triangles.
Adjacency EqualDegreeTies() {
  const EntityId n = 40;
  std::vector<Edge> edges;
  for (EntityId i = 0; i < n; ++i) {
    for (EntityId k = 1; k <= 3; ++k) edges.push_back({i, (i + k) % n});
  }
  return Adjacency::FromEdges(n, edges);
}

/// A random graph on the odd ids only; every even id is isolated.
Adjacency IsolatedNodes() {
  Rng rng(9);
  std::vector<Edge> edges;
  for (size_t i = 0; i < 150; ++i) {
    edges.push_back({static_cast<EntityId>(2 * rng.UniformInt(30) + 1),
                     static_cast<EntityId>(2 * rng.UniformInt(30) + 1)});
  }
  return Adjacency::FromEdges(61, edges);
}

/// K20 minus the edges {0,10}, {3,13}, {6,16} and {9,19}: those eight
/// nodes drop to degree 18, so the degree tiers do not follow id order.
Adjacency NearComplete() {
  const EntityId n = 20;
  std::vector<Edge> edges;
  for (EntityId u = 0; u < n; ++u) {
    for (EntityId v = u + 1; v < n; ++v) {
      if (v == u + 10 && u % 3 == 0) continue;
      edges.push_back({u, v});
    }
  }
  return Adjacency::FromEdges(n, edges);
}

/// The projection of a small FB15K-237-shaped KG.
Adjacency Fb15k237Scale40() {
  const Dataset dataset =
      std::move(GenerateSyntheticDataset(Fb15k237Config(40.0)))
          .ValueOrDie("dataset");
  return Adjacency::FromTripleStore(dataset.train());
}

class GraphShapePropertyTest : public ::testing::TestWithParam<GraphShape> {};

TEST_P(GraphShapePropertyTest, TrianglesMatchBruteForce) {
  const Adjacency adj = GetParam().make();
  const std::vector<uint64_t> counts = LocalTriangleCounts(adj);
  EXPECT_EQ(counts, reference::LocalTriangleCountsBruteForce(adj));
  uint64_t sum = 0;
  for (uint64_t t : counts) sum += t;
  EXPECT_GT(sum, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphShapePropertyTest,
    ::testing::Values(GraphShape{"hub_plus_clique", HubPlusClique},
                      GraphShape{"equal_degree_ties", EqualDegreeTies},
                      GraphShape{"isolated_nodes", IsolatedNodes},
                      GraphShape{"near_complete", NearComplete},
                      GraphShape{"fb15k237_scale40", Fb15k237Scale40}),
    [](const ::testing::TestParamInfo<GraphShape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace kgfd
