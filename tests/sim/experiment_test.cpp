#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace ibsim::sim {
namespace {

/// A preset small enough for unit tests: 12-node fabric, 3 p-points.
ExperimentPreset tiny_preset() {
  ExperimentPreset preset = ExperimentPreset::quick();
  preset.base.clos = topo::FoldedClosParams::scaled(4, 2, 3);
  preset.base.sim_time = core::kMillisecond;
  preset.base.warmup = 250 * core::kMicrosecond;
  preset.p_values = {0.0, 0.5, 1.0};
  preset.lifetimes = {200 * core::kMicrosecond, 100 * core::kMicrosecond};
  preset.moving_min_sim_time = 600 * core::kMicrosecond;
  preset.moving_lifetimes_per_run = 3;
  return preset;
}

TEST(RunParallel, MatchesSerialExecution) {
  SimConfig config = tiny_preset().base_config();
  config.scenario.fraction_c_of_rest = 0.5;
  config.scenario.n_hotspots = 1;
  std::vector<SimConfig> configs;
  for (int seed = 1; seed <= 4; ++seed) {
    configs.push_back(config);
    configs.back().seed = static_cast<std::uint64_t>(seed);
  }
  const std::vector<SimResult> parallel = run_parallel(configs, 4);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SimResult serial = run_sim(configs[i]);
    EXPECT_EQ(parallel[i].delivered_bytes, serial.delivered_bytes) << "config " << i;
    EXPECT_EQ(parallel[i].events_executed, serial.events_executed) << "config " << i;
  }
}

TEST(RunParallel, EmptyInputIsEmptyOutput) {
  EXPECT_TRUE(run_parallel({}, 4).empty());
}

TEST(ResolveThreads, ExplicitCountWinsOverEnv) {
  ::setenv("IBSIM_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3);
  ::unsetenv("IBSIM_THREADS");
}

std::int32_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<std::int32_t>(hw);
}

TEST(ResolveThreads, EnvOverridesHardwareDefaultClampedToHardware) {
  const std::int32_t hw = hardware_threads();
  ::setenv("IBSIM_THREADS", "2", 1);
  EXPECT_EQ(resolve_threads(0), 2 < hw ? 2 : hw);
  // A request beyond the core count is clamped, never oversubscribed.
  ::setenv("IBSIM_THREADS", "100000", 1);
  EXPECT_EQ(resolve_threads(0), hw);
  ::unsetenv("IBSIM_THREADS");
  EXPECT_EQ(resolve_threads(0), hw);
}

TEST(ResolveThreadsDeathTest, RejectsGarbageAndNonPositiveValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"banana", "", "3x", "-2", "0", "99999999999999999999"}) {
    ::setenv("IBSIM_THREADS", bad, 1);
    EXPECT_EXIT((void)resolve_threads(0), ::testing::ExitedWithCode(2), "IBSIM_THREADS")
        << "value '" << bad << "'";
  }
  ::unsetenv("IBSIM_THREADS");
}

TEST(RunParallel, HonoursThreadsEnv) {
  // A sweep pinned to one worker must still fill every slot correctly.
  ::setenv("IBSIM_THREADS", "1", 1);
  SimConfig config = tiny_preset().base_config();
  config.scenario.n_hotspots = 1;
  std::vector<SimConfig> configs(2, config);
  configs[1].seed = 2;
  const std::vector<SimResult> results = run_parallel(configs);
  ::unsetenv("IBSIM_THREADS");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].delivered_bytes, 0u);
  EXPECT_GT(results[1].delivered_bytes, 0u);
  EXPECT_NE(results[0].delivered_bytes, results[1].delivered_bytes);
}

TEST(WindyFigureHarness, SeriesShapesAndGrids) {
  const ExperimentPreset preset = tiny_preset();
  const WindyFigure fig = run_windy_figure(preset, 0.5);
  EXPECT_DOUBLE_EQ(fig.fraction_b, 0.5);
  for (const analysis::Series* s :
       {&fig.non_hotspot_off, &fig.non_hotspot_on, &fig.tmax, &fig.hotspot_off,
        &fig.hotspot_on, &fig.improvement}) {
    ASSERT_EQ(s->size(), preset.p_values.size());
    EXPECT_DOUBLE_EQ(s->x.front(), 0.0);
    EXPECT_DOUBLE_EQ(s->x.back(), 100.0);
  }
  // tmax is analytic and strictly decreasing in p.
  EXPECT_GT(fig.tmax.y.front(), fig.tmax.y.back());
  // Measured rates never exceed the sink ceiling.
  for (double y : fig.hotspot_on.y) EXPECT_LE(y, 13.7);
}

TEST(WindyFigureHarness, CsvFilesWritten) {
  const ExperimentPreset preset = tiny_preset();
  const WindyFigure fig = run_windy_figure(preset, 1.0);
  const std::string prefix = ::testing::TempDir() + "/windy_test";
  write_windy_csv(fig, prefix);
  for (const char* suffix :
       {"_a_nonhotspot.csv", "_b_hotspot.csv", "_c_improvement.csv"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("p_pct"), std::string::npos);
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Table2Harness, ProducesAllRows) {
  ExperimentPreset preset = tiny_preset();
  const Table2Result result = run_table2(preset);
  // Baseline rows: light uniform load (only 20% of 12 nodes active).
  EXPECT_GT(result.no_hotspot_off, 0.0);
  EXPECT_GT(result.no_hotspot_on, 0.0);
  // Hotspots saturate, non-hotspots collapse without CC.
  // 12 nodes / 8 hotspots leaves ~1 contributor each: near-saturated.
  EXPECT_GT(result.hotspot_rcv_off, 8.0);
  EXPECT_GT(result.total_throughput_on, 0.0);
  // The formatted table carries the paper's section structure.
  const std::string rendered = format_table2(result).render();
  EXPECT_NE(rendered.find("No hotspots, no CC"), std::string::npos);
  EXPECT_NE(rendered.find("Total network throughput"), std::string::npos);
}

TEST(MovingHarness, CurvesSpanTheLifetimeAxis) {
  const ExperimentPreset preset = tiny_preset();
  const MovingCurve curve = run_moving_silent(preset, 0.4);
  ASSERT_EQ(curve.off.size(), preset.lifetimes.size());
  ASSERT_EQ(curve.on.size(), preset.lifetimes.size());
  EXPECT_NE(curve.label.find("moving silent"), std::string::npos);
  // x axis in milliseconds, decreasing.
  EXPECT_DOUBLE_EQ(curve.off.x.front(), 0.2);
  EXPECT_DOUBLE_EQ(curve.off.x.back(), 0.1);
  for (double y : curve.on.y) EXPECT_GE(y, 0.0);
}

TEST(MovingHarness, WindyVariantLabelsP) {
  const ExperimentPreset preset = tiny_preset();
  const MovingCurve curve = run_moving_windy(preset, 0.6);
  EXPECT_NE(curve.label.find("p=60%"), std::string::npos);
  EXPECT_EQ(curve.off.size(), preset.lifetimes.size());
}

TEST(Presets, FromEnvHonoursForceFlag) {
  const ExperimentPreset forced = ExperimentPreset::from_env(/*force_full=*/true);
  EXPECT_EQ(forced.base.cc.ccti_increase, ExperimentPreset::paper().base.cc.ccti_increase);
  EXPECT_EQ(forced.base.sim_time, ExperimentPreset::paper().base.sim_time);
}

}  // namespace
}  // namespace ibsim::sim
