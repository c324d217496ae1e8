#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "kg/dataset.h"
#include "kg/io.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ScratchPath("io");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ + "/" + name);
    out << content;
  }

  std::string dir_;
};

TEST_F(DatasetIoTest, ReadTriplesParsesTsv) {
  WriteFile("t.txt", "alice\tknows\tbob\nbob\tknows\tcarol\n");
  Vocabulary entities, relations;
  auto result = ReadTriplesTsv(dir_ + "/t.txt", &entities, &relations);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().size(), 2u);
  EXPECT_EQ(entities.size(), 3u);
  EXPECT_EQ(relations.size(), 1u);
  EXPECT_EQ(result.value()[0],
            (Triple{entities.Lookup("alice").value(),
                    relations.Lookup("knows").value(),
                    entities.Lookup("bob").value()}));
}

TEST_F(DatasetIoTest, ReadSkipsEmptyLines) {
  WriteFile("t.txt", "a\tr\tb\n\n\nc\tr\td\n");
  Vocabulary entities, relations;
  auto result = ReadTriplesTsv(dir_ + "/t.txt", &entities, &relations);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 2u);
}

TEST_F(DatasetIoTest, ReadTrimsWhitespace) {
  WriteFile("t.txt", " a \tr\t b \n");
  Vocabulary entities, relations;
  auto result = ReadTriplesTsv(dir_ + "/t.txt", &entities, &relations);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(entities.Contains("a"));
  EXPECT_TRUE(entities.Contains("b"));
}

TEST_F(DatasetIoTest, ReadRejectsWrongArity) {
  WriteFile("t.txt", "a\tb\n");
  Vocabulary entities, relations;
  auto result = ReadTriplesTsv(dir_ + "/t.txt", &entities, &relations);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":1:"), std::string::npos);
}

TEST_F(DatasetIoTest, ReadMissingFileIsIoError) {
  Vocabulary entities, relations;
  auto result = ReadTriplesTsv(dir_ + "/nope.txt", &entities, &relations);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(DatasetIoTest, WriteThenReadRoundTrips) {
  Vocabulary entities, relations;
  const std::vector<Triple> triples = {
      {entities.AddOrGet("a"), relations.AddOrGet("r1"),
       entities.AddOrGet("b")},
      {entities.AddOrGet("c"), relations.AddOrGet("r2"),
       entities.AddOrGet("a")}};
  ASSERT_TRUE(
      WriteTriplesTsv(dir_ + "/out.txt", triples, entities, relations).ok());
  Vocabulary e2, r2;
  auto read = ReadTriplesTsv(dir_ + "/out.txt", &e2, &r2);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(e2.Name(read.value()[0].subject).value(), "a");
  EXPECT_EQ(r2.Name(read.value()[1].relation).value(), "r2");
}

TEST_F(DatasetIoTest, LoadDatasetDirBuildsValidDataset) {
  WriteFile("train.txt", "a\tr\tb\nb\tr\tc\nc\tr\ta\na\tr\tc\n");
  WriteFile("valid.txt", "b\tr\ta\n");
  WriteFile("test.txt", "c\tr\tb\n");
  auto result = LoadDatasetDir(dir_, "toy");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& d = result.value();
  EXPECT_EQ(d.name(), "toy");
  EXPECT_EQ(d.num_entities(), 3u);
  EXPECT_EQ(d.num_relations(), 1u);
  EXPECT_EQ(d.train().size(), 4u);
  EXPECT_EQ(d.valid().size(), 1u);
  EXPECT_EQ(d.test().size(), 1u);
}

TEST_F(DatasetIoTest, LoadRejectsOverlappingSplits) {
  WriteFile("train.txt", "a\tr\tb\nb\tr\tc\n");
  WriteFile("valid.txt", "a\tr\tb\n");  // duplicate of a train triple
  WriteFile("test.txt", "c\tr\tb\n");
  EXPECT_FALSE(LoadDatasetDir(dir_, "bad").ok());
}

TEST_F(DatasetIoTest, LoadRejectsUnseenTestEntity) {
  WriteFile("train.txt", "a\tr\tb\n");
  WriteFile("valid.txt", "");
  WriteFile("test.txt", "zz\tr\tb\n");  // zz unseen in train
  EXPECT_FALSE(LoadDatasetDir(dir_, "bad").ok());
}

TEST_F(DatasetIoTest, SaveDatasetDirWritesAllSplits) {
  WriteFile("train.txt", "a\tr\tb\nb\tr\tc\nc\tr\ta\n");
  WriteFile("valid.txt", "b\tr\ta\n");
  WriteFile("test.txt", "c\tr\tb\n");
  auto loaded = LoadDatasetDir(dir_, "toy");
  ASSERT_TRUE(loaded.ok());
  const std::string out_dir = dir_ + "/saved";
  std::filesystem::create_directories(out_dir);
  ASSERT_TRUE(SaveDatasetDir(loaded.value(), out_dir).ok());
  auto reloaded = LoadDatasetDir(out_dir, "toy2");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().train().size(), 3u);
  EXPECT_EQ(reloaded.value().valid().size(), 1u);
  EXPECT_EQ(reloaded.value().test().size(), 1u);
}

TEST(DatasetTest, KnownAnywhereChecksAllSplits) {
  Dataset d("x", 5, 1);
  ASSERT_TRUE(d.train().Add({0, 0, 1}).ok());
  ASSERT_TRUE(d.valid().Add({1, 0, 2}).ok());
  ASSERT_TRUE(d.test().Add({2, 0, 3}).ok());
  EXPECT_TRUE(d.KnownAnywhere({0, 0, 1}));
  EXPECT_TRUE(d.KnownAnywhere({1, 0, 2}));
  EXPECT_TRUE(d.KnownAnywhere({2, 0, 3}));
  EXPECT_FALSE(d.KnownAnywhere({3, 0, 4}));
}

TEST(DatasetTest, ValidateCatchesValidTestOverlap) {
  Dataset d("x", 5, 1);
  ASSERT_TRUE(d.train().AddAll({{0, 0, 1}, {1, 0, 2}, {2, 0, 0}}).ok());
  ASSERT_TRUE(d.valid().Add({1, 0, 0}).ok());
  ASSERT_TRUE(d.test().Add({1, 0, 0}).ok());
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidatePassesOnCleanDataset) {
  Dataset d("x", 3, 1);
  ASSERT_TRUE(d.train().AddAll({{0, 0, 1}, {1, 0, 2}, {2, 0, 0}}).ok());
  ASSERT_TRUE(d.valid().Add({1, 0, 0}).ok());
  ASSERT_TRUE(d.test().Add({2, 0, 1}).ok());
  EXPECT_TRUE(d.Validate().ok());
}

}  // namespace
}  // namespace kgfd
