#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/flags.h"
#include "util/string_util.h"

namespace kgfd {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a\tb\tc", '\t'),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("nothing"), "nothing");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ParseInt64Test, BoundaryTable) {
  struct Case {
    const char* text;
    bool ok;
    int64_t value;
  };
  const Case cases[] = {
      {"9223372036854775807", true, INT64_MAX},   // 2^63 - 1
      {"9223372036854775808", false, 0},          // 2^63
      {"-9223372036854775808", true, INT64_MIN},  // -2^63
      {"-9223372036854775809", false, 0},         // -2^63 - 1
      {"18446744073709551615", false, 0},         // 2^64 - 1
      {"-1", true, -1},
      {"0", true, 0},
      {"12x", false, 0},
      {"abc", false, 0},
      {"", false, 0},
  };
  for (const Case& c : cases) {
    const Result<int64_t> v = ParseInt64(c.text);
    EXPECT_EQ(v.ok(), c.ok) << "'" << c.text << "'";
    if (c.ok && v.ok()) {
      EXPECT_EQ(v.value(), c.value) << c.text;
    } else if (!c.ok) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << c.text;
    }
  }
}

class FlagsTest : public ::testing::Test {
 protected:
  Flags ParseOk(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    auto result =
        Flags::Parse(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

TEST_F(FlagsTest, EqualsSyntax) {
  const Flags f = ParseOk({"--scale=20", "--name=test"});
  EXPECT_EQ(f.GetInt("scale", 0), 20);
  EXPECT_EQ(f.GetString("name", ""), "test");
}

TEST_F(FlagsTest, SpaceSyntax) {
  const Flags f = ParseOk({"--scale", "30"});
  EXPECT_EQ(f.GetInt("scale", 0), 30);
}

TEST_F(FlagsTest, BareFlagIsTrue) {
  const Flags f = ParseOk({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
}

TEST_F(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = ParseOk({});
  EXPECT_EQ(f.GetInt("missing", 7), 7);
  EXPECT_EQ(f.GetDouble("missing", 2.5), 2.5);
  EXPECT_EQ(f.GetString("missing", "d"), "d");
  EXPECT_FALSE(f.GetBool("missing", false));
  EXPECT_FALSE(f.Has("missing"));
}

TEST_F(FlagsTest, BoolFalseSpellings) {
  const Flags f = ParseOk({"--a=false", "--b=0", "--c=yes"});
  EXPECT_FALSE(f.GetBool("a", true));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
}

TEST_F(FlagsTest, DoubleParsing) {
  const Flags f = ParseOk({"--rate=0.125"});
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.125);
}

TEST_F(FlagsTest, MalformedIntegersAbortNamingTheFlag) {
  const Flags f = ParseOk({"--threads=abc", "--top_n=12x", "--seed",
                           "9223372036854775808"});
  EXPECT_DEATH(f.GetInt("threads", 0), "--threads is not an integer: abc");
  EXPECT_DEATH(f.GetInt("top_n", 0), "--top_n is not an integer: 12x");
  EXPECT_DEATH(f.GetInt("seed", 0), "--seed is out of the int64 range");
}

TEST_F(FlagsTest, GetSizeRejectsNegativeInsteadOfWrapping) {
  const Flags f = ParseOk({"--threads", "-1", "--top_n=7"});
  EXPECT_DEATH(f.GetSize("threads", 0), "--threads must be >= 0, got -1");
  EXPECT_EQ(f.GetSize("top_n", 0), 7u);
  EXPECT_EQ(f.GetSize("missing", 3), 3u);
}

TEST(FlagsErrorTest, PositionalArgumentRejected) {
  const char* argv[] = {"prog", "positional"};
  auto result = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace kgfd
