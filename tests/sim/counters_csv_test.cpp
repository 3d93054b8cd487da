// The counter CSV as a run's time series: the congestion tree's life
// cycle (section III: it grows, marking starts, CCTIs climb, CC prunes
// it) read back from the sampled registry by column name.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/sampler.hpp"

namespace ibsim::sim {
namespace {

SimConfig timeline_config(bool cc_on, core::Time interval) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 0;
  config.cc.enabled = cc_on;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.5;
  config.scenario.n_hotspots = 1;
  config.telemetry.sample_interval = interval;
  return config;
}

std::string csv_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/counters_csv_" + info->name() + ".csv";
}

/// One run with its counter CSV read back: header line, then column
/// name -> one value per row.
struct CsvRun {
  SimResult result;
  std::int64_t total_delivered_bytes = 0;
  std::string header;
  std::map<std::string, std::vector<double>> columns;

  [[nodiscard]] const std::vector<double>& column(const std::string& name) const {
    const auto it = columns.find(name);
    EXPECT_NE(it, columns.end()) << "no column " << name << " in: " << header;
    static const std::vector<double> kNone;
    return it == columns.end() ? kNone : it->second;
  }
  [[nodiscard]] double peak(const std::string& name) const {
    const std::vector<double>& c = column(name);
    return c.empty() ? 0.0 : *std::max_element(c.begin(), c.end());
  }
};

CsvRun run_with_csv(SimConfig config) {
  config.telemetry.counters_csv = csv_path();
  CsvRun run;
  Simulation sim(config);
  run.result = sim.run();
  run.total_delivered_bytes = sim.fabric().total_delivered_bytes();

  std::ifstream in(config.telemetry.counters_csv);
  std::getline(in, run.header);
  std::vector<std::string> names;
  std::istringstream header(run.header);
  for (std::string name; std::getline(header, name, ',');) names.push_back(name);
  for (std::string line; std::getline(in, line);) {
    std::istringstream row(line);
    std::string cell;
    for (std::size_t i = 0; i < names.size() && std::getline(row, cell, ','); ++i) {
      run.columns[names[i]].push_back(std::stod(cell));
    }
  }
  std::remove(config.telemetry.counters_csv.c_str());
  return run;
}

TEST(CountersCsv, SamplesAtTheConfiguredInterval) {
  const CsvRun run = run_with_csv(timeline_config(true, 100 * core::kMicrosecond));
  const std::vector<double>& t_us = run.column("t_us");
  ASSERT_EQ(t_us.size(), 10u);
  for (std::size_t i = 0; i < t_us.size(); ++i) {
    EXPECT_EQ(t_us[i], static_cast<double>((i + 1) * 100)) << "row " << i;
  }
}

TEST(CountersCsv, ClassBytesCountThroughWarmup) {
  // The class-byte gauges are lifetime sink counters: the warmup reset of
  // the measurement window must not show up as a drop, so every interval's
  // difference is a real receive volume, the warmup's row included.
  SimConfig config = timeline_config(false, 100 * core::kMicrosecond);
  config.warmup = 500 * core::kMicrosecond;
  const CsvRun run = run_with_csv(config);
  for (const char* name : {"sink.rcv_bytes.hotspot", "sink.rcv_bytes.non_hotspot"}) {
    const std::vector<double>& bytes = run.column(name);
    ASSERT_EQ(bytes.size(), 10u) << name;
    EXPECT_GT(bytes.front(), 0.0) << name;
    for (std::size_t i = 1; i < bytes.size(); ++i) {
      EXPECT_LE(bytes[i - 1], bytes[i]) << name << " drops at row " << i;
    }
  }
  // At the end of the run the two classes split the fabric's lifetime
  // delivered bytes exactly.
  const auto& counters = run.result.counters;
  ASSERT_TRUE(counters.contains("sink.rcv_bytes.hotspot"));
  ASSERT_TRUE(counters.contains("sink.rcv_bytes.non_hotspot"));
  EXPECT_EQ(counters.at("sink.rcv_bytes.hotspot") + counters.at("sink.rcv_bytes.non_hotspot"),
            run.total_delivered_bytes);
  EXPECT_GT(run.total_delivered_bytes, run.result.delivered_bytes);  // warmup bytes included
  EXPECT_EQ(counters.at("sink.hotspot_nodes"), 1);
}

TEST(CountersCsv, CongestionTreeVisibleWithoutCc) {
  const CsvRun run = run_with_csv(timeline_config(false, 50 * core::kMicrosecond));
  // The tree builds and stays: queued bytes grow to a sustained plateau.
  const std::vector<double>& queued = run.column("fabric.queued_bytes");
  ASSERT_FALSE(queued.empty());
  EXPECT_GT(run.peak("fabric.queued_bytes"), 100 * 1024);
  EXPECT_GT(queued.back(), 100 * 1024);
  // Without CC no flow is ever throttled and no packet marked.
  EXPECT_EQ(run.peak("fabric.active_cc_flows"), 0.0);
  EXPECT_EQ(run.peak("fabric.fecn_marked"), 0.0);
}

TEST(CountersCsv, CcPrunesTheTree) {
  SimConfig config = timeline_config(true, 100 * core::kMicrosecond);
  config.sim_time = 3 * core::kMillisecond;
  const CsvRun run = run_with_csv(config);
  // The tree grows, marking fires, throttles accumulate, and the tree is
  // pruned well below its peak by the end of the run.
  const std::vector<double>& queued = run.column("fabric.queued_bytes");
  const std::vector<double>& flows = run.column("fabric.active_cc_flows");
  const std::vector<double>& ccti_sum = run.column("fabric.ccti_sum");
  ASSERT_FALSE(queued.empty());
  ASSERT_FALSE(flows.empty());
  ASSERT_FALSE(ccti_sum.empty());
  EXPECT_GT(run.peak("fabric.queued_bytes"), 50 * 1024);
  EXPECT_LT(queued.back(), run.peak("fabric.queued_bytes") / 2);
  EXPECT_GT(run.peak("fabric.fecn_marked"), 0.0);
  EXPECT_GT(run.peak("fabric.active_cc_flows"), 0.0);
  ASSERT_GT(flows.back(), 0.0);
  EXPECT_GT(ccti_sum.back() / flows.back(), 0.0);  // mean CCTI of the throttled flows
}

TEST(CountersCsv, HasHeaderAndRows) {
  const CsvRun run = run_with_csv(timeline_config(true, 200 * core::kMicrosecond));
  EXPECT_EQ(run.header.rfind("t_us,", 0), 0u) << run.header;
  for (const char* name : {"sink.rcv_bytes.hotspot", "sink.rcv_bytes.non_hotspot",
                           "sink.hotspot_nodes", "fabric.queued_bytes",
                           "fabric.active_cc_flows", "fabric.ccti_sum", "fabric.fecn_marked"}) {
    EXPECT_EQ(run.column(name).size(), 5u) << name;
  }
}

TEST(CountersCsvDeath, DoubleInstallAborts) {
  telemetry::CounterRegistry registry;
  (void)registry.counter("fabric.fecn_marked");
  core::Scheduler sched;
  const std::string path = csv_path();
  telemetry::CounterSampler sampler(&registry, 100 * core::kMicrosecond, path);
  ASSERT_TRUE(sampler.install(sched));
  EXPECT_DEATH((void)sampler.install(sched), "twice");
  sampler.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ibsim::sim
