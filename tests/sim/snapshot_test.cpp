// Snapshot-layer semantics: sharing one topology/routing snapshot
// across runs must be observationally invisible. SimResults are compared
// field-for-field (EXPECT_EQ, no tolerance) between runs on a shared
// snapshot and on a private build, and across run_parallel thread
// counts.

#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include "expect_identical.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

SimConfig small_base() {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 250 * core::kMicrosecond;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.n_hotspots = 2;
  return config;
}

/// The three congestion-tree classes of the paper's taxonomy.
std::vector<SimConfig> taxonomy_configs() {
  std::vector<SimConfig> configs;
  SimConfig silent = small_base();
  silent.scenario.fraction_b = 0.0;
  silent.scenario.fraction_c_of_rest = 0.8;
  configs.push_back(silent);

  SimConfig windy = small_base();
  windy.scenario.fraction_b = 1.0;
  windy.scenario.p = 0.5;
  configs.push_back(windy);

  SimConfig moving = small_base();
  moving.scenario.fraction_b = 0.0;
  moving.scenario.fraction_c_of_rest = 0.8;
  moving.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  configs.push_back(moving);
  return configs;
}

TEST(SnapshotBuild, TieBreakFollowsTopologyKind) {
  // Meshes route dimension-ordered, every other kind spreads d-mod-k;
  // callers that build a shared snapshot themselves rely on this.
  EXPECT_EQ(tie_break_for(TopologyKind::Mesh2D), topo::RoutingTables::TieBreak::FirstPort);
  for (const TopologyKind kind :
       {TopologyKind::FoldedClos, TopologyKind::SingleSwitch, TopologyKind::LinearChain,
        TopologyKind::Dumbbell, TopologyKind::FatTree3}) {
    EXPECT_EQ(tie_break_for(kind), topo::RoutingTables::TieBreak::DModK);
  }
}

TEST(SharedSnapshot, BitIdenticalAcrossTaxonomy) {
  // Two runs on one snapshot and one on a private build: sharing the
  // immutable topology and LFTs must not move a single result bit.
  for (SimConfig config : taxonomy_configs()) {
    config.telemetry.counters = true;  // compare counter snapshots too
    const auto snapshot = build_snapshot(config);
    Simulation first(config, snapshot);
    Simulation second(config, snapshot);
    EXPECT_EQ(&first.routing(), &second.routing());  // one LFT set, really shared
    const SimResult shared = first.run();
    const SimResult shared2 = second.run();
    const SimResult own = run_sim(config);
    expect_identical(shared, own, config.scenario.describe() + " (shared vs own snapshot)");
    expect_identical(shared, shared2, config.scenario.describe() + " (first vs second run)");
  }
}

TEST(RunParallelInvariance, AnyThreadCountYieldsIdenticalOrderedResults) {
  // Mixed scenario classes and seeds → wildly different run lengths, the
  // case a static partition handles worst and work-stealing must not
  // reorder or cross-seed.
  std::vector<SimConfig> configs;
  for (SimConfig config : taxonomy_configs()) {
    config.seed = static_cast<std::uint64_t>(configs.size() + 1);
    configs.push_back(config);
    config.seed += 100;
    config.sim_time = config.sim_time / 2;
    configs.push_back(config);
  }
  const std::vector<SimResult> one = run_parallel(configs, 1);
  const std::vector<SimResult> two = run_parallel(configs, 2);
  const std::vector<SimResult> five = run_parallel(configs, 5);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(two.size(), configs.size());
  ASSERT_EQ(five.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string what = "config " + std::to_string(i);
    expect_identical(one[i], two[i], what + " (1 vs 2 threads)");
    expect_identical(one[i], five[i], what + " (1 vs 5 threads)");
  }
}

TEST(RunParallelReport, AccountsEveryRunAndPublishesUtilization) {
  std::vector<SimConfig> configs(4, small_base());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = static_cast<std::uint64_t>(i + 1);
  }
  SweepReport report;
  const std::vector<SimResult> results = run_parallel(configs, 2, &report);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_EQ(report.workers.size(), 2u);
  std::uint64_t runs = 0;
  double busy = 0.0;
  for (const SweepWorkerStats& w : report.workers) {
    runs += w.runs;
    busy += w.busy_seconds;
  }
  EXPECT_EQ(runs, configs.size());
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(busy, 0.0);
  EXPECT_GT(report.utilization(), 0.0);
  EXPECT_LE(report.utilization(), 1.0 + 1e-9);

  telemetry::CounterRegistry registry;
  report.publish(registry);
  EXPECT_TRUE(registry.find("sweep.wall_us").valid());
  EXPECT_TRUE(registry.find("sweep.utilization_permille").valid());
  EXPECT_TRUE(registry.find("sweep.worker.0.busy_us").valid());
  EXPECT_TRUE(registry.find("sweep.worker.1.runs").valid());
  EXPECT_EQ(registry.value(registry.find("sweep.workers")), 2);
  const std::int64_t w0 = registry.value(registry.find("sweep.worker.0.runs"));
  const std::int64_t w1 = registry.value(registry.find("sweep.worker.1.runs"));
  EXPECT_EQ(w0 + w1, static_cast<std::int64_t>(configs.size()));
}

TEST(RunParallelReport, EmptySweepReportsNoWorkers) {
  SweepReport report;
  report.workers.push_back({1.0, 1});  // stale contents must be cleared
  EXPECT_TRUE(run_parallel({}, 4, &report).empty());
  EXPECT_TRUE(report.workers.empty());
  EXPECT_EQ(report.utilization(), 0.0);
}

}  // namespace
}  // namespace ibsim::sim
