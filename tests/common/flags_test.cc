#include "common/flags.hpp"

#include <gtest/gtest.h>

namespace gcp {
namespace {

Flags ParseArgs(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const Flags f = ParseArgs({"--graphs=500", "--alpha=1.4"});
  EXPECT_EQ(f.GetInt("graphs", 0), 500);
  EXPECT_DOUBLE_EQ(f.GetDouble("alpha", 0.0), 1.4);
}

TEST(FlagsTest, SpaceSeparatedForm) {
  const Flags f = ParseArgs({"--queries", "1000", "--name", "fig4"});
  EXPECT_EQ(f.GetInt("queries", 0), 1000);
  EXPECT_EQ(f.GetString("name", ""), "fig4");
}

TEST(FlagsTest, BooleanForm) {
  const Flags f = ParseArgs({"--quick", "--full=false"});
  EXPECT_TRUE(f.GetBool("quick", false));
  EXPECT_FALSE(f.GetBool("full", true));
  EXPECT_TRUE(f.GetBool("absent", true));
  EXPECT_FALSE(f.GetBool("absent", false));
}

TEST(FlagsTest, BooleanTrueSpellings) {
  EXPECT_TRUE(ParseArgs({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(ParseArgs({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(ParseArgs({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(ParseArgs({"--x=on"}).GetBool("x", false));
  EXPECT_FALSE(ParseArgs({"--x=0"}).GetBool("x", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = ParseArgs({});
  EXPECT_EQ(f.GetInt("k", 7), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", 2.5), 2.5);
  EXPECT_EQ(f.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(f.Has("k"));
}

TEST(FlagsTest, MalformedNumbersFallBack) {
  const Flags f = ParseArgs({"--n=abc", "--d=1.2.3"});
  EXPECT_EQ(f.GetInt("n", -1), -1);
  EXPECT_DOUBLE_EQ(f.GetDouble("d", -2.0), -2.0);
}

TEST(FlagsTest, PositionalArguments) {
  const Flags f = ParseArgs({"input.txt", "--k=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(FlagsTest, LastDuplicateWins) {
  const Flags f = ParseArgs({"--k=1", "--k=2"});
  EXPECT_EQ(f.GetInt("k", 0), 2);
}

TEST(FlagsTest, RequireKnownAcceptsKnown) {
  const Flags f = ParseArgs({"--a=1", "--b=2"});
  EXPECT_TRUE(f.RequireKnown({"a", "b", "c"}).ok());
}

TEST(FlagsTest, RequireKnownRejectsUnknown) {
  const Flags f = ParseArgs({"--a=1", "--typo=2"});
  const Status s = f.RequireKnown({"a"});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("typo"), std::string::npos);
}

TEST(FlagsTest, NegativeNumericValueAfterSpace) {
  // "--k -3" : "-3" does not start with "--", so it is the value.
  const Flags f = ParseArgs({"--k", "-3"});
  EXPECT_EQ(f.GetInt("k", 0), -3);
}

TEST(FlagsTest, CountParsesPlainDecimals) {
  const Flags f = ParseArgs({"--graphs=500", "--cache", "0",
                             "--budget=18446744073709551615"});
  EXPECT_EQ(f.GetCount("graphs", 7).value(), 500u);
  EXPECT_EQ(f.GetCount("cache", 7).value(), 0u);
  EXPECT_EQ(f.GetCount("budget", 7).value(), 18446744073709551615u);
  EXPECT_EQ(f.GetCount("absent", 7).value(), 7u);
}

TEST(FlagsTest, CountRejectsNegativeValues) {
  const Flags f = ParseArgs({"--graphs=-1", "--byte-budget=-5", "--z=-0"});
  for (const char* key : {"graphs", "byte-budget", "z"}) {
    const Result<std::uint64_t> v = f.GetCount(key, 7);
    ASSERT_FALSE(v.ok()) << key;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(v.status().message().find(key), std::string::npos);
  }
}

TEST(FlagsTest, CountRejectsOverflow) {
  const Flags f = ParseArgs({"--huge=18446744073709551616",
                             "--wide=4294967296", "--fits=4294967295"});
  EXPECT_FALSE(f.GetCount("huge", 0).ok());
  // Above the caller's bound (a uint32_t field) is an error, not a wrap.
  EXPECT_FALSE(f.GetCount("wide", 0, 4294967295u).ok());
  EXPECT_EQ(f.GetCount("fits", 0, 4294967295u).value(), 4294967295u);
}

TEST(FlagsTest, CountRejectsNonNumericValues) {
  const Flags f = ParseArgs({"--a=abc", "--b=12x", "--c=1.5", "--d=+3",
                             "--e= 4", "--f", "--g=0x10"});
  for (const char* key : {"a", "b", "c", "d", "e", "f", "g"}) {
    EXPECT_FALSE(f.GetCount(key, 7).ok()) << key;
  }
}

}  // namespace
}  // namespace gcp
