#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kg/io.h"
#include "kg/triple_store.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// Randomized differential test: TripleStore against a trivially correct
/// reference built on std::set / std::map. Sweeps several graph shapes and
/// duplicate rates.
struct FuzzParam {
  size_t num_entities;
  size_t num_relations;
  size_t num_ops;
  uint64_t seed;
};

class TripleStoreFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(TripleStoreFuzzTest, MatchesReferenceImplementation) {
  const FuzzParam& p = GetParam();
  Rng rng(p.seed);
  TripleStore store(p.num_entities, p.num_relations);

  std::set<Triple> reference;
  std::map<std::pair<EntityId, RelationId>, std::set<EntityId>> ref_objects;
  std::map<std::pair<RelationId, EntityId>, std::set<EntityId>> ref_subjects;
  std::map<RelationId, size_t> ref_by_relation;

  for (size_t op = 0; op < p.num_ops; ++op) {
    const Triple t{
        static_cast<EntityId>(rng.UniformInt(p.num_entities)),
        static_cast<RelationId>(rng.UniformInt(p.num_relations)),
        static_cast<EntityId>(rng.UniformInt(p.num_entities))};
    auto added = store.Add(t);
    ASSERT_TRUE(added.ok());
    const bool ref_added = reference.insert(t).second;
    EXPECT_EQ(added.value(), ref_added);
    if (ref_added) {
      ref_objects[{t.subject, t.relation}].insert(t.object);
      ref_subjects[{t.relation, t.object}].insert(t.subject);
      ++ref_by_relation[t.relation];
    }
  }

  EXPECT_EQ(store.size(), reference.size());

  // Membership parity on random probes (mix of present and absent).
  for (size_t probe = 0; probe < 500; ++probe) {
    const Triple t{
        static_cast<EntityId>(rng.UniformInt(p.num_entities)),
        static_cast<RelationId>(rng.UniformInt(p.num_relations)),
        static_cast<EntityId>(rng.UniformInt(p.num_entities))};
    EXPECT_EQ(store.Contains(t), reference.count(t) > 0);
  }

  // Per-relation bucket sizes.
  for (RelationId r = 0; r < p.num_relations; ++r) {
    const size_t expected =
        ref_by_relation.count(r) ? ref_by_relation[r] : 0;
    EXPECT_EQ(store.ByRelation(r).size(), expected);
  }

  // Index parity for every observed key.
  for (const auto& [key, expected] : ref_objects) {
    std::vector<EntityId> got = store.ObjectsOf(key.first, key.second);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, std::vector<EntityId>(expected.begin(), expected.end()));
  }
  for (const auto& [key, expected] : ref_subjects) {
    std::vector<EntityId> got = store.SubjectsOf(key.first, key.second);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, std::vector<EntityId>(expected.begin(), expected.end()));
  }

  // UsedRelations parity.
  std::vector<RelationId> expected_used;
  for (const auto& [r, count] : ref_by_relation) {
    if (count > 0) expected_used.push_back(r);
  }
  EXPECT_EQ(store.UsedRelations(), expected_used);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TripleStoreFuzzTest,
    ::testing::Values(FuzzParam{5, 2, 300, 1},      // tiny, many duplicates
                      FuzzParam{50, 5, 2000, 2},    // medium
                      FuzzParam{500, 20, 5000, 3},  // sparse
                      FuzzParam{10, 1, 1000, 4},    // near-saturated
                      FuzzParam{200, 3, 4000, 5}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      return "e" + std::to_string(info.param.num_entities) + "_r" +
             std::to_string(info.param.num_relations) + "_n" +
             std::to_string(info.param.num_ops);
    });

// --------------------------------------------------- TSV parser fuzzing

/// Parser hardening tests for ReadTriplesTsv: hostile inputs (truncation,
/// embedded NULs, CRLF, wrong arity) must produce a clean error or a
/// correct parse — never a crash, and never a silent misparse.
class TsvParserFuzzTest : public ::testing::Test {
 protected:
  Result<std::vector<Triple>> Parse(const std::string& content) {
    const std::string path = scratch_.File("input.tsv");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(content.data(),
                static_cast<std::streamsize>(content.size()));
    }
    entities_ = Vocabulary();
    relations_ = Vocabulary();
    return ReadTriplesTsv(path, &entities_, &relations_);
  }

  ScratchDir scratch_;

  Vocabulary entities_;
  Vocabulary relations_;
};

TEST_F(TsvParserFuzzTest, CrlfParsesIdenticallyToLf) {
  auto lf = Parse("a\tr\tb\nb\tr\tc\n");
  ASSERT_TRUE(lf.ok());
  const std::vector<Triple> expected = lf.value();
  const size_t num_entities = entities_.size();

  auto crlf = Parse("a\tr\tb\r\nb\tr\tc\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().ToString();
  EXPECT_EQ(crlf.value(), expected);
  // No "c\r" ghost entity: the vocabularies must come out identical too.
  EXPECT_EQ(entities_.size(), num_entities);
  EXPECT_TRUE(entities_.Contains("c"));
  EXPECT_FALSE(entities_.Contains("c\r"));
}

TEST_F(TsvParserFuzzTest, BlankCrlfLinesAreSkipped) {
  auto result = Parse("a\tr\tb\r\n\r\n\r\nc\tr\td\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST_F(TsvParserFuzzTest, TruncatedFinalLineWithoutNewlineStillParses) {
  auto result = Parse("a\tr\tb\nc\tr\td");  // no trailing newline
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST_F(TsvParserFuzzTest, TruncatedMidTripleIsRejected) {
  // A write cut off mid-triple must fail loudly, not yield a short triple.
  EXPECT_FALSE(Parse("a\tr\tb\nc\tr").ok());
  EXPECT_FALSE(Parse("a\tr\tb\nc\t").ok());
  EXPECT_FALSE(Parse("a\tr\tb\nc").ok());
}

TEST_F(TsvParserFuzzTest, EmbeddedNulByteIsRejected) {
  const std::string nul_in_field{"a\tr\tb\0c\n", 8};
  auto result = Parse(nul_in_field);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("NUL"), std::string::npos);
  // NUL as whole-field content, and NUL on a later line.
  EXPECT_FALSE(Parse(std::string{"\0\tr\tb\n", 6}).ok());
  EXPECT_FALSE(Parse(std::string{"a\tr\tb\nx\ty\t\0\n", 12}).ok());
}

TEST_F(TsvParserFuzzTest, ExtraColumnsAreRejectedWithCount) {
  auto four = Parse("a\tr\tb\textra\n");
  ASSERT_FALSE(four.ok());
  EXPECT_NE(four.status().ToString().find("got 4"), std::string::npos);
  EXPECT_FALSE(Parse("a\tr\tb\tc\td\te\n").ok());
}

TEST_F(TsvParserFuzzTest, ErrorsNameTheOffendingLine) {
  auto result = Parse("a\tr\tb\nc\tr\td\nbroken line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find(":3"), std::string::npos);
}

TEST_F(TsvParserFuzzTest, WhitespaceOnlyFieldsAreRejected) {
  // Trim() used to reduce these to empty names that the vocabulary then
  // accepted as a real (invisible) entity.
  EXPECT_FALSE(Parse("  \tr\tb\n").ok());
  EXPECT_FALSE(Parse("a\t \tb\n").ok());
  EXPECT_FALSE(Parse("a\tr\t\t\n").ok());
  EXPECT_FALSE(Parse("\t\t\n").ok());
}

TEST_F(TsvParserFuzzTest, RandomBytesNeverCrashTheParser) {
  Rng rng(0xF00D);
  for (int round = 0; round < 200; ++round) {
    const size_t len = rng.UniformInt(200);
    std::string content;
    content.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward structure bytes so some rounds form partial triples.
      const uint64_t roll = rng.UniformInt(10);
      if (roll < 3) {
        content.push_back('\t');
      } else if (roll < 5) {
        content.push_back('\n');
      } else {
        content.push_back(static_cast<char>(rng.UniformInt(256)));
      }
    }
    auto result = Parse(content);  // outcome free, crash/UB forbidden
    if (result.ok()) {
      // Accepted input must obey the invariant: ids within vocab bounds.
      for (const Triple& t : result.value()) {
        EXPECT_LT(t.subject, entities_.size());
        EXPECT_LT(t.object, entities_.size());
        EXPECT_LT(t.relation, relations_.size());
      }
    }
  }
}

TEST_F(TsvParserFuzzTest, RandomValidTriplesRoundTrip) {
  Rng rng(0xBEEF);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.UniformInt(30);
    std::string content;
    for (size_t i = 0; i < n; ++i) {
      content += "e" + std::to_string(rng.UniformInt(20)) + "\tr" +
                 std::to_string(rng.UniformInt(4)) + "\te" +
                 std::to_string(rng.UniformInt(20)) +
                 (rng.UniformInt(2) == 0 ? "\r\n" : "\n");
    }
    auto result = Parse(content);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().size(), n);
  }
}

}  // namespace
}  // namespace kgfd
