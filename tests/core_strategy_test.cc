#include "core/strategy.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "graph/pagerank.h"
#include "kg/synthetic.h"

namespace kgfd {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// KG used across the formula tests:
///   0 -r0-> 1, 0 -r0-> 2, 1 -r0-> 2, 2 -r1-> 3, 0 -r1-> 3
/// Undirected projection: edges 0-1, 0-2, 1-2, 2-3, 0-3, i.e. the two
/// triangles {0,1,2} and {0,2,3} sharing edge 0-2. Node 4 is isolated.
TripleStore FormulaStore() {
  TripleStore store(5, 2);
  store
      .AddAll({{0, 0, 1}, {0, 0, 2}, {1, 0, 2}, {2, 1, 3}, {0, 1, 3}})
      .AbortIfNotOk("formula store");
  return store;
}

TEST(StrategyNamesTest, RoundTripCanonicalAndAbbrev) {
  for (SamplingStrategy s :
       {SamplingStrategy::kUniformRandom, SamplingStrategy::kEntityFrequency,
        SamplingStrategy::kGraphDegree,
        SamplingStrategy::kClusteringCoefficient,
        SamplingStrategy::kClusteringTriangles,
        SamplingStrategy::kClusteringSquares}) {
    auto canonical = SamplingStrategyFromName(SamplingStrategyName(s));
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(canonical.value(), s);
    auto abbrev = SamplingStrategyFromName(SamplingStrategyAbbrev(s));
    ASSERT_TRUE(abbrev.ok());
    EXPECT_EQ(abbrev.value(), s);
  }
  EXPECT_FALSE(SamplingStrategyFromName("NOPE").ok());
}

TEST(StrategyNamesTest, AdaptiveAndModelScoreRoundTrip) {
  for (SamplingStrategy s :
       {SamplingStrategy::kModelScore, SamplingStrategy::kAdaptive}) {
    auto canonical = SamplingStrategyFromName(SamplingStrategyName(s));
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(canonical.value(), s);
    auto abbrev = SamplingStrategyFromName(SamplingStrategyAbbrev(s));
    ASSERT_TRUE(abbrev.ok());
    EXPECT_EQ(abbrev.value(), s);
  }
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kModelScore),
               "MODEL_SCORE");
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kAdaptive),
               "ADAPTIVE");
}

TEST(StrategyNamesTest, AllStrategiesEnumeratedOnce) {
  const auto all = AllSamplingStrategies();
  EXPECT_EQ(all.size(), 11u);
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]);
    }
  }
  // Every enumerated strategy round-trips through its name.
  for (SamplingStrategy s : all) {
    auto parsed = SamplingStrategyFromName(SamplingStrategyName(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), s);
  }
}

TEST(StrategyNamesTest, UnknownNameErrorListsEveryValidName) {
  const auto result = SamplingStrategyFromName("CLAIRVOYANT");
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().message();
  EXPECT_NE(message.find("CLAIRVOYANT"), std::string::npos);
  // The actionable part: every valid spelling appears in the message.
  for (SamplingStrategy s : AllSamplingStrategies()) {
    EXPECT_NE(message.find(SamplingStrategyName(s)), std::string::npos)
        << "missing " << SamplingStrategyName(s) << " in: " << message;
  }
}

TEST(StrategyWeightsTest, RejectsModelScoreAndAdaptiveWithGuidance) {
  // These two are not topology formulas: MODEL_SCORE needs the model
  // (adaptive/score_sketch.h) and ADAPTIVE is a meta-strategy. The error
  // must say where to go instead of a generic "unsupported".
  const TripleStore store = FormulaStore();
  auto ms = ComputeStrategyWeights(SamplingStrategy::kModelScore, store);
  ASSERT_FALSE(ms.ok());
  EXPECT_EQ(ms.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ms.status().message().find("score_sketch"), std::string::npos);
  auto ad = ComputeStrategyWeights(SamplingStrategy::kAdaptive, store);
  ASSERT_FALSE(ad.ok());
  EXPECT_EQ(ad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StrategyNamesTest, ComparativeSetExcludesSquares) {
  const auto strategies = ComparativeStrategies();
  EXPECT_EQ(strategies.size(), 5u);
  for (SamplingStrategy s : strategies) {
    EXPECT_NE(s, SamplingStrategy::kClusteringSquares);
  }
}

TEST(StrategyWeightsTest, RejectsEmptyKg) {
  TripleStore empty(3, 1);
  EXPECT_FALSE(
      ComputeStrategyWeights(SamplingStrategy::kUniformRandom, empty).ok());
}

TEST(StrategyWeightsTest, UniformRandomMatchesEq1) {
  const TripleStore store = FormulaStore();
  auto w = ComputeStrategyWeights(SamplingStrategy::kUniformRandom, store);
  ASSERT_TRUE(w.ok());
  // Unique subjects: {0, 1, 2}; unique objects: {1, 2, 3}.
  EXPECT_EQ(w.value().subject_pool, (std::vector<EntityId>{0, 1, 2}));
  EXPECT_EQ(w.value().object_pool, (std::vector<EntityId>{1, 2, 3}));
  for (double v : w.value().subject_weights) {
    EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
  }
  for (double v : w.value().object_weights) {
    EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
  }
}

TEST(StrategyWeightsTest, EntityFrequencyMatchesEq2) {
  const TripleStore store = FormulaStore();
  auto w = ComputeStrategyWeights(SamplingStrategy::kEntityFrequency, store);
  ASSERT_TRUE(w.ok());
  // count(0, subject) = 3, count(1, subject) = 1, count(2, subject) = 1;
  // len(side) = 5 triples on each side (Eq. 2 divides by the side's triple
  // count, not the unique-entity pool size).
  EXPECT_EQ(w.value().subject_pool, (std::vector<EntityId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(w.value().subject_weights[0], 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[1], 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[2], 1.0 / 5.0);
  // Objects: 1 once, 2 twice, 3 twice.
  EXPECT_DOUBLE_EQ(w.value().object_weights[0], 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(w.value().object_weights[1], 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(w.value().object_weights[2], 2.0 / 5.0);
}

TEST(StrategyWeightsTest, EntityFrequencySidesDifferAsInPaper) {
  // The paper notes an entity on both sides may get different weights.
  const TripleStore store = FormulaStore();
  auto w = ComputeStrategyWeights(SamplingStrategy::kEntityFrequency, store);
  ASSERT_TRUE(w.ok());
  // Entity 2: subject weight 1/5, object weight 2/5.
  EXPECT_NE(w.value().subject_weights[2], w.value().object_weights[1]);
}

TEST(StrategyWeightsTest, GraphDegreeMatchesEq3) {
  const TripleStore store = FormulaStore();
  auto w = ComputeStrategyWeights(SamplingStrategy::kGraphDegree, store);
  ASSERT_TRUE(w.ok());
  // Degrees: 0:3, 1:2, 2:3, 3:2, 4:0; sum 10.
  ASSERT_EQ(w.value().subject_pool.size(), 5u);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[0], 0.3);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[1], 0.2);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[2], 0.3);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[3], 0.2);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[4], 0.0);
  // Side-agnostic: both sides identical (paper Eq. 3 remark).
  EXPECT_EQ(w.value().subject_weights, w.value().object_weights);
}

TEST(StrategyWeightsTest, ClusteringTrianglesMatchesEq4) {
  const TripleStore store = FormulaStore();
  auto w =
      ComputeStrategyWeights(SamplingStrategy::kClusteringTriangles, store);
  ASSERT_TRUE(w.ok());
  // T = [2, 1, 2, 1, 0] (nodes 0 and 2 corner both triangles); sum 6.
  EXPECT_DOUBLE_EQ(w.value().subject_weights[0], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[1], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[2], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[3], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(w.value().subject_weights[4], 0.0);
}

TEST(StrategyWeightsTest, ClusteringCoefficientMatchesEq5) {
  const TripleStore store = FormulaStore();
  auto w = ComputeStrategyWeights(SamplingStrategy::kClusteringCoefficient,
                                  store);
  ASSERT_TRUE(w.ok());
  // c(0) = 2*1/(3*2) = 1/3, c(1) = 1, c(2) = 1/3, c(3) = 0, c(4) = 0.
  const Adjacency adj = Adjacency::FromTripleStore(store);
  const std::vector<double> c = LocalClusteringCoefficients(adj);
  const double total = Sum(c);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(w.value().subject_weights[i], c[i] / total, 1e-12);
  }
}

TEST(StrategyWeightsTest, ClusteringSquaresMatchesEq6) {
  // Add a square so c4 is not identically zero:
  // edges 0-1, 1-2, 2-3, 3-0 via relation 0.
  TripleStore store(4, 1);
  ASSERT_TRUE(
      store.AddAll({{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 0, 0}}).ok());
  auto w =
      ComputeStrategyWeights(SamplingStrategy::kClusteringSquares, store);
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(w.value().fell_back_to_uniform);
  for (double v : w.value().subject_weights) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(StrategyWeightsTest, AllStrategiesNormalizeToOne) {
  // Regression for the ENTITY_FREQUENCY fix: Eq. 2 divides count(x, side)
  // by the number of triples on that side, so — like every other strategy —
  // each side's weights form a probability distribution.
  const TripleStore store = FormulaStore();
  for (SamplingStrategy s :
       {SamplingStrategy::kUniformRandom, SamplingStrategy::kEntityFrequency,
        SamplingStrategy::kGraphDegree,
        SamplingStrategy::kClusteringCoefficient,
        SamplingStrategy::kClusteringTriangles,
        SamplingStrategy::kClusteringSquares}) {
    auto w = ComputeStrategyWeights(s, store);
    ASSERT_TRUE(w.ok()) << SamplingStrategyName(s);
    EXPECT_NEAR(Sum(w.value().subject_weights), 1.0, 1e-9)
        << SamplingStrategyName(s);
    EXPECT_NEAR(Sum(w.value().object_weights), 1.0, 1e-9)
        << SamplingStrategyName(s);
  }
}

TEST(StrategyWeightsTest, TriangleFreeGraphFallsBackToUniform) {
  // A path graph has no triangles: CLUSTERING_TRIANGLES weights would be
  // all-zero, so the implementation falls back to uniform.
  TripleStore store(4, 1);
  ASSERT_TRUE(store.AddAll({{0, 0, 1}, {1, 0, 2}, {2, 0, 3}}).ok());
  auto w =
      ComputeStrategyWeights(SamplingStrategy::kClusteringTriangles, store);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.value().fell_back_to_uniform);
  for (double v : w.value().subject_weights) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(StrategyWeightsTest, PopularityCorrelationHoldsOnSkewedGraph) {
  // The paper's central observation: frequency/degree/triangle weights
  // correlate with entity frequency; clustering-coefficient weights do not
  // reward the most popular (star-center) node.
  TripleStore store(8, 1);
  // Star around 0 (popular), plus a triangle 5-6-7 (clustered).
  ASSERT_TRUE(store
                  .AddAll({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4},
                           {5, 0, 6}, {6, 0, 7}, {7, 0, 5}})
                  .ok());
  auto degree = ComputeStrategyWeights(SamplingStrategy::kGraphDegree, store);
  auto coeff = ComputeStrategyWeights(
      SamplingStrategy::kClusteringCoefficient, store);
  ASSERT_TRUE(degree.ok() && coeff.ok());
  // Degree strategy: node 0 has max weight.
  const auto& dw = degree.value().subject_weights;
  EXPECT_EQ(std::max_element(dw.begin(), dw.end()) - dw.begin(), 0);
  // Clustering coefficient: node 0 has zero weight despite popularity.
  EXPECT_DOUBLE_EQ(coeff.value().subject_weights[0], 0.0);
  EXPECT_GT(coeff.value().subject_weights[5], 0.0);
}

/// FromNodeMetric's normalization, restated: metric / sum(metric), summed
/// in id order.
std::vector<double> Normalized(const std::vector<double>& metric) {
  double total = 0.0;
  for (double m : metric) total += m;
  std::vector<double> w(metric.size());
  for (size_t i = 0; i < metric.size(); ++i) w[i] = metric[i] / total;
  return w;
}

TEST(StrategyWeightsTest, GraphWeightsBitEqualSetProjectionReference) {
  // The topology weights, built from the brute-force definitions over a
  // std::set projection, must equal the library's to the last bit.
  const Dataset dataset =
      std::move(GenerateSyntheticDataset(Fb15k237Config(40.0)))
          .ValueOrDie("dataset");
  const TripleStore& kg = dataset.train();
  const size_t n = kg.num_entities();
  std::vector<std::set<EntityId>> neighbors(n);
  for (const Triple& t : kg.triples()) {
    if (t.subject == t.object) continue;
    neighbors[t.subject].insert(t.object);
    neighbors[t.object].insert(t.subject);
  }
  std::vector<double> degree(n), triangles(n), coefficient(n, 0.0);
  std::vector<std::pair<EntityId, EntityId>> edges;
  for (EntityId v = 0; v < n; ++v) {
    uint64_t t = 0;
    for (auto u = neighbors[v].begin(); u != neighbors[v].end(); ++u) {
      if (v < *u) edges.push_back({v, *u});
      for (auto w = std::next(u); w != neighbors[v].end(); ++w) {
        t += neighbors[*u].count(*w);
      }
    }
    const double d = static_cast<double>(neighbors[v].size());
    degree[v] = d;
    triangles[v] = static_cast<double>(t);
    if (d >= 2.0) coefficient[v] = 2.0 * triangles[v] / (d * (d - 1.0));
  }
  const std::pair<SamplingStrategy, std::vector<double>> cases[] = {
      {SamplingStrategy::kClusteringTriangles, triangles},
      {SamplingStrategy::kClusteringCoefficient, coefficient},
      {SamplingStrategy::kGraphDegree, degree},
      {SamplingStrategy::kPageRank,
       PageRank(Adjacency::FromEdges(n, edges))}};
  for (const auto& [strategy, metric] : cases) {
    auto w = ComputeStrategyWeights(strategy, kg);
    ASSERT_TRUE(w.ok()) << SamplingStrategyName(strategy);
    EXPECT_FALSE(w.value().fell_back_to_uniform);
    const std::vector<double> expected = Normalized(metric);
    EXPECT_EQ(w.value().subject_weights, expected)
        << SamplingStrategyName(strategy);
    EXPECT_EQ(w.value().object_weights, expected)
        << SamplingStrategyName(strategy);
  }
}

}  // namespace
}  // namespace kgfd
