#include "util/table.h"
#include "test_scratch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace kgfd {
namespace {

TEST(TableTest, FmtDouble) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Fmt(1.0, 4), "1.0000");
}

TEST(TableTest, FmtIntegers) {
  EXPECT_EQ(Table::Fmt(size_t{42}), "42");
  EXPECT_EQ(Table::Fmt(int64_t{-7}), "-7");
}

TEST(TableTest, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string out = t.ToAscii();
  // Header, rule, two rows.
  size_t lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(TableTest, CsvBasic) {
  Table t({"x", "y"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "x,y\n1,2\n");
}

TEST(TableTest, CsvEscapesSpecialCharacters) {
  Table t({"v"});
  t.AddRow({"has,comma"});
  t.AddRow({"has\"quote"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, WriteCsvRoundTrips) {
  Table t({"k", "v"});
  t.AddRow({"alpha", "1"});
  const std::string path = ScratchPath("table.csv");
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "k,v\nalpha,1\n");
  std::remove(path.c_str());
}

TEST(TableTest, WriteCsvToBadPathFails) {
  Table t({"a"});
  EXPECT_FALSE(t.WriteCsv("/nonexistent_dir_kgfd/x.csv").ok());
}

TEST(TableTest, NumRowsTracksAdds) {
  Table t({"a"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1"});
  t.AddRow({"2"});
  EXPECT_EQ(t.num_rows(), 2u);
}

}  // namespace
}  // namespace kgfd
