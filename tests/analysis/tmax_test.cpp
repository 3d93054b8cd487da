#include "analysis/tmax.hpp"

#include <gtest/gtest.h>

namespace ibsim::analysis {
namespace {

TmaxInputs windy_648(std::int32_t n_b, double p) {
  TmaxInputs in;
  in.n_nodes = 648;
  in.n_b = n_b;
  const std::int32_t rest = 648 - n_b;
  const auto n_c = static_cast<std::int32_t>(rest * 0.8 + 0.5);
  in.n_v = rest - n_c;
  in.p = p;
  return in;
}

TEST(Tmax, PaperFig5ValueAtPZero) {
  // 25% B nodes, p = 0: the paper quotes tmax = 5.4 Gb/s.
  EXPECT_NEAR(tmax_gbps(windy_648(162, 0.0)), 5.4, 0.01);
}

TEST(Tmax, DecreasesWithP) {
  double prev = 1e9;
  for (double p : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const double t = tmax_gbps(windy_648(162, p));
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(Tmax, AllBNodesAtP100IsZero) {
  TmaxInputs in;
  in.n_nodes = 648;
  in.n_b = 648;
  in.p = 1.0;
  EXPECT_DOUBLE_EQ(tmax_gbps(in), 0.0);
}

TEST(Tmax, AllBNodesAtP0IsFullUniform) {
  TmaxInputs in;
  in.n_nodes = 648;
  in.n_b = 648;
  in.p = 0.0;
  EXPECT_NEAR(tmax_gbps(in), 13.5, 1e-9);
}

TEST(Tmax, CappedByDrainRate) {
  TmaxInputs in;
  in.n_nodes = 2;
  in.n_v = 2;
  in.inject_gbps = 100.0;
  in.drain_gbps = 13.6;
  EXPECT_DOUBLE_EQ(tmax_gbps(in), 13.6);
}

TEST(Tmax, SteeperSlopeWithMoreBNodes) {
  // Section V-B.2: the tmax-vs-p graph gets steeper as the B fraction
  // grows.
  const double slope_25 =
      tmax_gbps(windy_648(162, 0.0)) - tmax_gbps(windy_648(162, 1.0));
  const double slope_75 =
      tmax_gbps(windy_648(486, 0.0)) - tmax_gbps(windy_648(486, 1.0));
  EXPECT_GT(slope_75, slope_25);
}

}  // namespace
}  // namespace ibsim::analysis
