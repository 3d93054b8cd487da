// Property suite for the Frame I generator semantics, driven through
// the full simulation so pacing, flow control and CC throttling all
// interact with the budgets.

#include <gtest/gtest.h>

#include "../sim/expect_identical.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"
#include "traffic/scenario.hpp"

namespace ibsim::sim {
namespace {

class Frame1Property : public ::testing::TestWithParam<double> {};

TEST_P(Frame1Property, BudgetsHoldThroughTheFullStack) {
  const double p = GetParam();
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = 2 * core::kMillisecond;
  config.warmup = 0;
  config.cc = ib::CcParams::disabled();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = p;
  config.scenario.n_hotspots = 2;

  Simulation sim(config);
  (void)sim.run();

  const std::int64_t budget = core::capacity_bytes(13.5, config.sim_time);
  for (const traffic::BNodeGenerator* gen : sim.scenario().generators()) {
    // Frame I: by time t, at most p% of capacity x t to the hotspot and
    // at most (1-p)% elsewhere (one in-flight packet of slack).
    EXPECT_LE(gen->hotspot_bytes_sent(),
              static_cast<std::int64_t>(p * static_cast<double>(budget)) + ib::kMtuBytes)
        << "node " << gen->node();
    EXPECT_LE(gen->uniform_bytes_sent(),
              static_cast<std::int64_t>((1.0 - p) * static_cast<double>(budget)) +
                  ib::kMtuBytes)
        << "node " << gen->node();
  }
}

/// Light hotspot shares only: heavier ones congest the hotspots, and
/// congested senders are held below their budget by design (covered by
/// Frame1.ThrottledHotspotLeavesLinkIdleNotReallocated).
class Frame1Uncongested : public ::testing::TestWithParam<double> {};

TEST_P(Frame1Uncongested, SendersUseTheirBudget) {
  // With a hotspot share too small to congest anything, a saturating
  // generator should consume nearly its whole budget.
  const double p = GetParam();
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);
  config.sim_time = core::kMillisecond;
  config.warmup = 0;
  config.cc = ib::CcParams::disabled();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = p;
  config.scenario.n_hotspots = 2;

  Simulation sim(config);
  (void)sim.run();
  const std::int64_t budget = core::capacity_bytes(13.5, config.sim_time);
  for (const traffic::BNodeGenerator* gen : sim.scenario().generators()) {
    const std::int64_t sent = gen->hotspot_bytes_sent() + gen->uniform_bytes_sent();
    EXPECT_GT(sent, budget / 2) << "node " << gen->node() << " left its link idle";
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, Frame1Property,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0));
INSTANTIATE_TEST_SUITE_P(PSweep, Frame1Uncongested, ::testing::Values(0.0, 0.1));

TEST(Frame1, VanishingHotspotShareMatchesZero) {
  // At p_percent = 1e-300 the hotspot stream's budget time lies past
  // core::Time's range; the stream must stay shut, exactly as at p = 0,
  // instead of converting an out-of-range double.
  SimConfig zero;
  zero.topology = TopologyKind::SingleSwitch;
  zero.single_switch_nodes = 4;
  zero.scenario.n_hotspots = 1;
  zero.scenario.fraction_b = 1.0;
  zero.sim_time = 200 * core::kMicrosecond;
  zero.warmup = 50 * core::kMicrosecond;
  SimConfig tiny = zero;
  ASSERT_EQ(apply_config_text("p_percent=0\n", &zero), "");
  ASSERT_EQ(apply_config_text("p_percent=1e-300\n", &tiny), "");
  ASSERT_GT(tiny.scenario.p, 0.0);
  expect_identical(run_sim(tiny), run_sim(zero), "p_percent=1e-300 vs 0");
}

TEST(Frame1, ThrottledHotspotLeavesLinkIdleNotReallocated) {
  // End-to-end version of Frame I's independence rule: with CC enabled
  // and deep hotspot congestion, B nodes must NOT shift unused hotspot
  // budget onto uniform traffic.
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);
  config.sim_time = 2 * core::kMillisecond;
  config.warmup = 0;
  config.cc.ccti_increase = 8;  // hard throttling
  config.cc.ccti_timer = 150;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.7;
  config.scenario.n_hotspots = 1;

  Simulation sim(config);
  (void)sim.run();
  const std::int64_t budget = core::capacity_bytes(13.5, config.sim_time);
  for (const traffic::BNodeGenerator* gen : sim.scenario().generators()) {
    EXPECT_LE(gen->uniform_bytes_sent(),
              static_cast<std::int64_t>(0.3 * static_cast<double>(budget)) + ib::kMtuBytes);
  }
}

}  // namespace
}  // namespace ibsim::sim
