#include "sim/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ibsim::sim {
namespace {

bool parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()),
                   const_cast<char**>(const_cast<const char**>(args.data())));
}

TEST(Cli, DefaultsApplyWithoutArgs) {
  Cli cli("test");
  cli.add_int("count", 42, "a count");
  cli.add_string("name", "abc", "a name");
  cli.add_flag("verbose", "a flag");
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int("count"), 42);
  EXPECT_EQ(cli.get_string("name"), "abc");
  EXPECT_FALSE(cli.flag("verbose"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli("test");
  cli.add_int("count", 0, "");
  cli.add_string("name", "", "");
  EXPECT_TRUE(parse(cli, {"--count=7", "--name=xyz"}));
  EXPECT_EQ(cli.get_int("count"), 7);
  EXPECT_EQ(cli.get_string("name"), "xyz");
}

TEST(Cli, SpaceSyntax) {
  Cli cli("test");
  cli.add_int("count", 0, "");
  EXPECT_TRUE(parse(cli, {"--count", "9"}));
  EXPECT_EQ(cli.get_int("count"), 9);
}

TEST(Cli, FlagsSet) {
  Cli cli("test");
  cli.add_flag("full", "");
  EXPECT_TRUE(parse(cli, {"--full"}));
  EXPECT_TRUE(cli.flag("full"));
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  EXPECT_FALSE(parse(cli, {"--help"}));
}

TEST(Cli, NegativeNumbers) {
  Cli cli("test");
  cli.add_int("offset", 0, "");
  EXPECT_TRUE(parse(cli, {"--offset=-5"}));
  EXPECT_EQ(cli.get_int("offset"), -5);
}

TEST(Cli, StringOptionAcceptsEmptyValue) {
  Cli cli("test");
  cli.add_string("result-store", "dir", "");
  EXPECT_TRUE(parse(cli, {"--result-store="}));
  EXPECT_EQ(cli.get_string("result-store"), "");
}

TEST(CliDeath, UnknownOptionExits) {
  Cli cli("test");
  EXPECT_DEATH(parse(cli, {"--nope"}), "unknown option");
}

TEST(CliDeath, BadIntegerExits) {
  for (const char* arg : {"--count=abc", "--count=", "--count=99999999999999999999999"}) {
    Cli cli("test");
    cli.add_int("count", 0, "");
    EXPECT_EXIT(parse(cli, {arg}), ::testing::ExitedWithCode(2), "expects an integer") << arg;
  }
}

// Options hold integers only: a fractional or exponent number is as
// wrong as a word.
TEST(CliDeath, BadNumberExits) {
  for (const char* arg : {"--count=2.25", "--count=1e3"}) {
    Cli cli("test");
    cli.add_int("count", 0, "");
    EXPECT_EXIT(parse(cli, {arg}), ::testing::ExitedWithCode(2), "expects an integer") << arg;
  }
}

TEST(CliDeath, MissingValueExits) {
  Cli cli("test");
  cli.add_int("count", 0, "");
  EXPECT_DEATH(parse(cli, {"--count"}), "needs a value");
}

TEST(CliDeath, FlagWithValueExits) {
  Cli cli("test");
  cli.add_flag("full", "");
  EXPECT_DEATH(parse(cli, {"--full=1"}), "does not take");
}

TEST(CliDeath, PositionalArgumentExits) {
  Cli cli("test");
  EXPECT_DEATH(parse(cli, {"positional"}), "unexpected");
}

TEST(CliDeath, WrongTypeQueryAborts) {
  Cli cli("test");
  cli.add_int("count", 0, "");
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_DEATH((void)cli.get_string("count"), "wrong type");
}

}  // namespace
}  // namespace ibsim::sim
