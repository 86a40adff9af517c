#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace rcast {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  auto f = make({"--nodes=50", "--rate=1.5"});
  EXPECT_EQ(f.get_int("nodes", 0), 50);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 1.5);
}

TEST(Flags, SpaceSyntax) {
  auto f = make({"--nodes", "50"});
  EXPECT_EQ(f.get_int("nodes", 0), 50);
}

TEST(Flags, BareFlagIsTrue) {
  auto f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(Flags, FallbacksWhenMissing) {
  auto f = make({});
  EXPECT_EQ(f.get_int("nodes", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 2.5), 2.5);
  EXPECT_EQ(f.get_string("name", "x"), "x");
  EXPECT_FALSE(f.get_bool("flag", false));
  EXPECT_FALSE(f.has("anything"));
}

TEST(Flags, BoolParsesVariants) {
  EXPECT_TRUE(make({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(make({"--a=0"}).get_bool("a", true));
}

TEST(Flags, PositionalArguments) {
  auto f = make({"input.txt", "--n=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, UnknownTracksUnqueried) {
  auto f = make({"--typo=3", "--known=1"});
  EXPECT_EQ(f.get_int("known", 0), 1);
  const auto u = f.unknown();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], "typo");
}

TEST(Flags, NegativeNumberAsValue) {
  auto f = make({"--offset=-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

TEST(Flags, LastDuplicateWins) {
  auto f = make({"--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

}  // namespace
}  // namespace rcast
