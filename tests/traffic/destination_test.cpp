#include "traffic/destination.hpp"

#include <gtest/gtest.h>

#include <map>

namespace ibsim::traffic {
namespace {

TEST(UniformDestination, NeverDrawsSelf) {
  core::Rng rng(1);
  UniformDestination dist(3, 8);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(dist.draw(rng), 3);
}

TEST(UniformDestination, CoversAllOtherNodes) {
  core::Rng rng(2);
  UniformDestination dist(0, 5);
  std::map<ib::NodeId, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[dist.draw(rng)];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [node, count] : counts) {
    EXPECT_GE(node, 1);
    EXPECT_LE(node, 4);
    EXPECT_NEAR(count, 1250, 150);  // uniform within ~4 sigma
  }
}

TEST(UniformDestination, SelfAtBoundaries) {
  core::Rng rng(3);
  UniformDestination first(0, 4);
  UniformDestination last(3, 4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(first.draw(rng), 0);
    EXPECT_NE(last.draw(rng), 3);
  }
}

TEST(UniformDestination, TwoNodeNetworkIsDeterministic) {
  core::Rng rng(4);
  UniformDestination dist(0, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.draw(rng), 1);
}

}  // namespace
}  // namespace ibsim::traffic
