// Scale-path invariants for the SoA/arena fabric (DESIGN.md §13).
//
// The layout refactor must be observationally invisible at the
// ~2k-endpoint scale the CI smoke job exercises: neither a shared
// snapshot nor sweep-level parallelism may perturb a single bit of any
// SimResult. These run the scale_2k fat-tree with short windows — large
// enough to light up every arbitration mask and arena regrowth path,
// short enough for a test suite.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../sim/expect_identical.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "topo/builders.hpp"

namespace ibsim::sim {
namespace {

SimConfig scale2k_config() {
  SimConfig config;
  config.topology = TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_2k();
  config.sim_time = 150 * core::kMicrosecond;
  config.warmup = 50 * core::kMicrosecond;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  return config;
}

TEST(ScaleInvariants, SharedSnapshotBitIdenticalAt2k) {
  // Two runs on one snapshot and one on a private build.
  const SimConfig config = scale2k_config();
  const auto snapshot = build_snapshot(config);
  const SimResult shared = Simulation(config, snapshot).run();
  const SimResult shared2 = Simulation(config, snapshot).run();
  const SimResult own = run_sim(config);
  expect_identical(shared, own, "2k scale, shared vs own snapshot");
  expect_identical(shared, shared2, "2k scale, first vs second run on one snapshot");
}

TEST(ScaleInvariants, RunParallelThreadCountsBitIdenticalAt2k) {
  std::vector<SimConfig> configs;
  configs.push_back(scale2k_config());
  configs.push_back(scale2k_config());
  configs.back().cc = ib::CcParams::disabled();
  configs.back().seed = 7;
  configs.push_back(scale2k_config());
  configs.back().seed = 42;
  configs.back().sim_time = 100 * core::kMicrosecond;

  const std::vector<SimResult> one = run_parallel(configs, 1);
  const std::vector<SimResult> two = run_parallel(configs, 2);
  const std::vector<SimResult> five = run_parallel(configs, 5);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(two.size(), configs.size());
  ASSERT_EQ(five.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string what = "2k scale, config " + std::to_string(i);
    expect_identical(one[i], two[i], what + " (1 vs 2 threads)");
    expect_identical(one[i], five[i], what + " (1 vs 5 threads)");
  }
}

}  // namespace
}  // namespace ibsim::sim
