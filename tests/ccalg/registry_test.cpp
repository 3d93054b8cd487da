#include "ccalg/registry.hpp"

#include <gtest/gtest.h>

#include "ib/cc_params.hpp"
#include "ib/cct.hpp"

namespace ibsim::ccalg {
namespace {

CcAlgoContext make_ctx(const ib::CongestionControlTable* cct) {
  CcAlgoContext ctx;
  ctx.params = ib::CcParams::paper_table1();
  ctx.cct = cct;
  return ctx;
}

TEST(CcAlgorithmRegistry, BuiltinsRegistered) {
  const auto& reg = CcAlgorithmRegistry::instance();
  EXPECT_TRUE(reg.contains("iba_a10"));
  EXPECT_TRUE(reg.contains("dcqcn"));
  EXPECT_TRUE(reg.contains("aimd"));
  EXPECT_TRUE(reg.contains("none"));
  EXPECT_FALSE(reg.contains("ecn"));
  EXPECT_FALSE(reg.contains(""));
}

TEST(CcAlgorithmRegistry, NamesSortedAndJoined) {
  const auto& reg = CcAlgorithmRegistry::instance();
  const std::vector<std::string> names = reg.names();
  ASSERT_GE(names.size(), 4u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]) << "names must enumerate sorted";
  }
  const std::string joined = reg.names_joined();
  EXPECT_NE(joined.find("iba_a10"), std::string::npos);
  EXPECT_NE(joined.find("dcqcn"), std::string::npos);
}

TEST(CcAlgorithmRegistry, IdsAreSortedRanks) {
  const auto& reg = CcAlgorithmRegistry::instance();
  const std::vector<std::string> names = reg.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(reg.id_of(names[i]), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(reg.id_of("no-such-algorithm"), -1);
}

TEST(CcAlgorithmRegistry, CreateReturnsNamedInstance) {
  ib::CongestionControlTable cct(128, 13.5);
  cct.populate_linear();
  const auto& reg = CcAlgorithmRegistry::instance();
  for (const char* name : {"iba_a10", "dcqcn", "aimd", "none"}) {
    const auto algo = reg.create(name, make_ctx(&cct));
    ASSERT_NE(algo, nullptr);
    EXPECT_STREQ(algo->name(), name);
  }
}

TEST(CcAlgorithmRegistry, RateBasedAlgorithmsWorkWithoutCct) {
  const auto& reg = CcAlgorithmRegistry::instance();
  for (const char* name : {"dcqcn", "aimd", "none"}) {
    const auto algo = reg.create(name, make_ctx(nullptr));
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->injection_delay(0, 2048), 0);
  }
}

TEST(CcAlgorithmRegistryDeath, CreateUnknownAborts) {
  ib::CongestionControlTable cct(128, 13.5);
  EXPECT_DEATH((void)CcAlgorithmRegistry::instance().create("bogus", make_ctx(&cct)),
               "unknown");
}

TEST(CcAlgorithmRegistryDeath, IbaA10NeedsCct) {
  EXPECT_DEATH((void)CcAlgorithmRegistry::instance().create("iba_a10", make_ctx(nullptr)),
               "table");
}

}  // namespace
}  // namespace ibsim::ccalg
