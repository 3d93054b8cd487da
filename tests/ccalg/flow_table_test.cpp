#include "ccalg/flow_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace ibsim::ccalg {
namespace {

struct Probe {
  std::int64_t value = 7;  ///< idle reads as 7
  std::int32_t flow = -1;  ///< the table's key
  bool touched = false;
};

TEST(FlowTable, StartsEmptyAndUntouchedFlowsReadIdle) {
  FlowTable<Probe> table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.state(0).value, 7);
  EXPECT_EQ(table.state(123456).value, 7);
  table.touch(5).value = 1;
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.state(5).value, 1);
  EXPECT_EQ(table.state(6).value, 7);  // a neighbour stays idle
  EXPECT_FALSE(table.state(6).touched);
}

TEST(FlowTable, StateSurvivesEveryDoubling) {
  // 602 distinct flows, spread like the destinations one HCA of a wide
  // fabric talks to, plus the extremes of the id range.
  std::vector<std::int32_t> flows = {0, std::numeric_limits<std::int32_t>::max()};
  for (std::int32_t i = 1; i < 601; ++i) flows.push_back(i * 17 + i / 10 * 10240);
  FlowTable<Probe> table;
  std::size_t growths = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::size_t before = table.capacity();
    Probe& p = table.touch(flows[i]);
    EXPECT_FALSE(p.touched) << flows[i];
    p.touched = true;
    p.value = static_cast<std::int64_t>(i);
    if (table.capacity() != before) ++growths;
    EXPECT_LE(4 * table.size(), 3 * table.capacity());  // at most 3/4 full
  }
  // 8 slots first, then doublings: 1024 is the first size holding 602
  // at 3/4 load, reached in 8 allocations, not one per insert.
  EXPECT_EQ(table.size(), flows.size());
  EXPECT_EQ(table.capacity(), 1024u);
  EXPECT_EQ(growths, 8u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(table.state(flows[i]).value, static_cast<std::int64_t>(i)) << flows[i];
    EXPECT_EQ(table.state(flows[i]).flow, flows[i]);
  }
}

TEST(FlowTableDeathTest, NegativeFlowIdsAreRejected) {
  FlowTable<Probe> table;
  EXPECT_DEATH((void)table.touch(-1), "non-negative");
}

}  // namespace
}  // namespace ibsim::ccalg
