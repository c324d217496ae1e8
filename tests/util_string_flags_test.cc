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

TEST(ParseUint64Test, BoundaryTable) {
  struct Case {
    const char* text;
    bool ok;
    uint64_t value;
  };
  const Case cases[] = {
      {"18446744073709551615", true, UINT64_MAX},  // 2^64 - 1
      {"18446744073709551616", false, 0},          // 2^64
      {"9223372036854775808", true, uint64_t{1} << 63},
      {"0", true, 0},
      {"-0", true, 0},
      {"-1", false, 0},  // strtoull would wrap it to 2^64 - 1
      {" -1", false, 0},
      {"-9223372036854775809", false, 0},
      {"12x", false, 0},
      {"", false, 0},
  };
  for (const Case& c : cases) {
    const Result<uint64_t> v = ParseUint64(c.text);
    EXPECT_EQ(v.ok(), c.ok) << "'" << c.text << "'";
    if (c.ok && v.ok()) {
      EXPECT_EQ(v.value(), c.value) << c.text;
    }
  }
  EXPECT_EQ(ParseUint64("-1").status().message(), "must be >= 0, got -1");
}

TEST(ParseDoubleTest, BoundaryTable) {
  EXPECT_EQ(ParseDouble("0.125").value(), 0.125);
  EXPECT_EQ(ParseDouble("-2").value(), -2.0);
  EXPECT_EQ(ParseDouble("1e-3").value(), 1e-3);
  for (const char* bad : {"abc", "0.5x", "", "1e999"}) {
    EXPECT_EQ(ParseDouble(bad).status().code(), StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(ParseDouble("abc").status().message(), "is not a number: abc");
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
  // Only true/1 and false/0 are booleans: anything else used to read as
  // true, so `--type_filter off` turned the filter on.
  const Flags f = ParseOk({"--a=false", "--b=0", "--c=yes", "--d=1"});
  EXPECT_FALSE(f.GetBool("a", true));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("d", false));
  EXPECT_DEATH(f.GetBool("c", false), "--c is not a boolean: yes");
}

TEST_F(FlagsTest, DoubleParsing) {
  const Flags f = ParseOk({"--rate=0.125", "--bad=abc", "--tail=0.5x"});
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0.0), 0.125);
  EXPECT_DEATH(f.GetDouble("bad", 0.0), "--bad is not a number: abc");
  EXPECT_DEATH(f.GetDouble("tail", 0.0), "--tail is not a number: 0.5x");
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

TEST_F(FlagsTest, GetUint64TakesTheWholeUnsignedRange) {
  const Flags f = ParseOk({"--seed", "-1", "--big=18446744073709551615",
                           "--over=18446744073709551616"});
  EXPECT_DEATH(f.GetUint64("seed", 0), "--seed must be >= 0, got -1");
  EXPECT_EQ(f.GetUint64("big", 0), UINT64_MAX);
  EXPECT_DEATH(f.GetUint64("over", 0), "--over is out of the uint64 range");
  EXPECT_EQ(f.GetUint64("missing", 5), 5u);
}

TEST_F(FlagsTest, UnreadFlagsAreNamed) {
  const Flags f = ParseOk({"--top-n", "3", "--top_n=7", "--journal_fsnyc"});
  EXPECT_EQ(f.GetSize("top_n", 500), 7u);
  EXPECT_EQ(f.config().UnconsumedKeys(),
            (std::vector<std::string>{"journal_fsnyc", "top-n"}));
  const Status unread = f.config().CheckAllRead();
  EXPECT_EQ(unread.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unread.message(), "unknown flag --journal_fsnyc, --top-n");
  (void)f.GetString("top-n", "");
  (void)f.GetBool("journal_fsnyc", false);
  EXPECT_TRUE(f.config().CheckAllRead().ok());
}

TEST(FlagsErrorTest, PositionalArgumentRejected) {
  const char* argv[] = {"prog", "positional"};
  auto result = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace kgfd
