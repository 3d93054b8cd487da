#include "core/stats.hpp"

#include <gtest/gtest.h>

namespace ibsim::core {
namespace {

TEST(Histogram, BinsAndRanges) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.bins(), 10u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, CountsIntoCorrectBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(0.9);
  h.add(9.99);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, UnderAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(10.0);  // hi is exclusive
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, QuantileOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.5);
  h.add(2.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.bin_count(2), 0u);
}

TEST(Jain, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 1.0, 1.0, 1.0}), 1.0);
}

TEST(Jain, CompletelyUnfair) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Jain, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
  EXPECT_NEAR(jain_fairness({1.0, 2.0, 3.0}), 36.0 / (3.0 * 14.0), 1e-12);
}

}  // namespace
}  // namespace ibsim::core
