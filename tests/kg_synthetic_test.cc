#include "kg/synthetic.h"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>

#include "graph/adjacency.h"
#include "graph/metrics.h"
#include "kg/kg_stats.h"

namespace kgfd {

// gtest prints a value parameter into the test name. Print a preset by its
// name: the default byte dump includes the address of `name`'s buffer, which
// would give the preset tests a different name on every build.
void PrintTo(const SyntheticConfig& config, std::ostream* os) {
  *os << config.name;
}

namespace {

TEST(SyntheticTest, RejectsDegenerateConfigs) {
  SyntheticConfig c;
  c.num_entities = 1;
  EXPECT_FALSE(GenerateSyntheticDataset(c).ok());
  c = SyntheticConfig();
  c.closure_probability = 1.5;
  EXPECT_FALSE(GenerateSyntheticDataset(c).ok());
}

TEST(SyntheticTest, RejectsOverSaturatedRequest) {
  SyntheticConfig c;
  c.num_entities = 4;
  c.num_relations = 1;
  c.num_train = 100;  // way over 0.5 * 4*3*1 = 6 triples
  c.num_valid = 0;
  c.num_test = 0;
  EXPECT_FALSE(GenerateSyntheticDataset(c).ok());
}

TEST(SyntheticTest, ExactSplitSizes) {
  SyntheticConfig c;
  c.num_entities = 300;
  c.num_relations = 5;
  c.num_train = 2000;
  c.num_valid = 100;
  c.num_test = 120;
  auto result = GenerateSyntheticDataset(c);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().train().size(), 2000u);
  EXPECT_EQ(result.value().valid().size(), 100u);
  EXPECT_EQ(result.value().test().size(), 120u);
}

TEST(SyntheticTest, DeterministicUnderSeed) {
  SyntheticConfig c;
  c.num_entities = 200;
  c.num_relations = 4;
  c.num_train = 1000;
  c.num_valid = 50;
  c.num_test = 50;
  c.seed = 99;
  auto a = GenerateSyntheticDataset(c);
  auto b = GenerateSyntheticDataset(c);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().train().triples(), b.value().train().triples());
  EXPECT_EQ(a.value().test().triples(), b.value().test().triples());
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig c;
  c.num_entities = 200;
  c.num_relations = 4;
  c.num_train = 1000;
  c.num_valid = 50;
  c.num_test = 50;
  c.seed = 1;
  auto a = GenerateSyntheticDataset(c);
  c.seed = 2;
  auto b = GenerateSyntheticDataset(c);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().train().triples(), b.value().train().triples());
}

TEST(SyntheticTest, NoSelfLoops) {
  SyntheticConfig c;
  c.num_entities = 150;
  c.num_relations = 3;
  c.num_train = 800;
  c.num_valid = 40;
  c.num_test = 40;
  auto result = GenerateSyntheticDataset(c);
  ASSERT_TRUE(result.ok());
  for (const TripleStore* split :
       {&result.value().train(), &result.value().valid(),
        &result.value().test()}) {
    for (const Triple& t : split->triples()) {
      EXPECT_NE(t.subject, t.object);
    }
  }
}

TEST(SyntheticTest, ClosureKnobRaisesClustering) {
  SyntheticConfig base;
  base.num_entities = 400;
  base.num_relations = 6;
  base.num_train = 4000;
  base.num_valid = 100;
  base.num_test = 100;
  // Low skew so the popular-entity core doesn't cluster by itself and the
  // closure knob's effect is isolated.
  base.entity_zipf_exponent = 0.3;
  base.closure_probability = 0.0;
  auto sparse = GenerateSyntheticDataset(base);
  base.closure_probability = 0.45;
  auto dense = GenerateSyntheticDataset(base);
  ASSERT_TRUE(sparse.ok() && dense.ok());
  const double cc_sparse = AverageClusteringCoefficient(
      Adjacency::FromTripleStore(sparse.value().train()));
  const double cc_dense = AverageClusteringCoefficient(
      Adjacency::FromTripleStore(dense.value().train()));
  EXPECT_GT(cc_dense, 2.0 * cc_sparse);
}

TEST(SyntheticTest, ZipfExponentSkewsFrequencies) {
  SyntheticConfig base;
  base.num_entities = 500;
  base.num_relations = 4;
  base.num_train = 3000;
  base.num_valid = 50;
  base.num_test = 50;
  base.entity_zipf_exponent = 1.2;
  auto skewed = GenerateSyntheticDataset(base);
  ASSERT_TRUE(skewed.ok());
  const SideCounts counts = ComputeSideCounts(skewed.value().train());
  // The head entity (id 0, highest Zipf weight) should dwarf the median.
  uint32_t head = counts.subject_count[0] + counts.object_count[0];
  uint32_t mid = counts.subject_count[250] + counts.object_count[250];
  EXPECT_GT(head, 5 * std::max(1u, mid));
}

/// Preset property sweep over all four paper datasets.
class PresetTest : public ::testing::TestWithParam<SyntheticConfig> {};

TEST_P(PresetTest, GeneratesValidDataset) {
  auto result = GenerateSyntheticDataset(GetParam());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().Validate().ok());
}

TEST_P(PresetTest, MatchesConfiguredCounts) {
  const SyntheticConfig& c = GetParam();
  auto result = GenerateSyntheticDataset(c);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_entities(), c.num_entities);
  EXPECT_EQ(result.value().num_relations(), c.num_relations);
  EXPECT_EQ(result.value().train().size(), c.num_train);
  EXPECT_EQ(result.value().valid().size(), c.num_valid);
  EXPECT_EQ(result.value().test().size(), c.num_test);
}

TEST_P(PresetTest, AllTriplesUnique) {
  auto result = GenerateSyntheticDataset(GetParam());
  ASSERT_TRUE(result.ok());
  std::unordered_set<uint64_t> seen;
  for (const TripleStore* split :
       {&result.value().train(), &result.value().valid(),
        &result.value().test()}) {
    for (const Triple& t : split->triples()) {
      EXPECT_TRUE(seen.insert(PackTriple(t)).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPresets, PresetTest,
    ::testing::Values(Fb15k237Config(200.0), Wn18rrConfig(200.0),
                      Yago310Config(200.0), CodexLConfig(200.0)),
    [](const ::testing::TestParamInfo<SyntheticConfig>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(PresetOrderingTest, RelationCountsMatchPaperTable1) {
  EXPECT_EQ(Fb15k237Config(100.0).num_relations, 237u);
  EXPECT_EQ(Wn18rrConfig(100.0).num_relations, 11u);
  EXPECT_EQ(Yago310Config(100.0).num_relations, 37u);
  EXPECT_EQ(CodexLConfig(100.0).num_relations, 69u);
}

TEST(PresetOrderingTest, ScaleOneMatchesPaperSizes) {
  const SyntheticConfig c = Fb15k237Config(1.0);
  EXPECT_EQ(c.num_entities, 14541u);
  EXPECT_EQ(c.num_train, 272115u);
  EXPECT_EQ(c.num_valid, 17535u);
  EXPECT_EQ(c.num_test, 20429u);
}

TEST(PresetOrderingTest, Wn18rrIsSparsest) {
  // The paper's Fig. 3: WN18RR has by far the lowest average clustering
  // coefficient; FB15K-237 the highest.
  double cc[4];
  int i = 0;
  for (const SyntheticConfig& c : AllDatasetConfigs(150.0)) {
    auto d = GenerateSyntheticDataset(c);
    ASSERT_TRUE(d.ok()) << c.name << ": " << d.status().ToString();
    cc[i++] = AverageClusteringCoefficient(
        Adjacency::FromTripleStore(d.value().train()));
  }
  const double fb = cc[0], wn = cc[1], yago = cc[2], codex = cc[3];
  EXPECT_LT(wn, fb);
  EXPECT_LT(wn, yago);
  EXPECT_LT(wn, codex);
  EXPECT_GT(fb, yago);
}

}  // namespace
}  // namespace kgfd
