#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "workload/engine.hpp"

namespace ibsim::sim {
namespace {

SimConfig silent_clos_config() {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 4);  // 16 nodes
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 2;
  config.sim_time = 1500 * core::kMicrosecond;
  config.warmup = 300 * core::kMicrosecond;
  return config;
}

TEST(Metrics, NoHotspotsConfigured) {
  // Without a hotspot class every node is a non-hotspot, and the hotspot
  // average reads 0 rather than dividing by an empty class.
  SimConfig config = silent_clos_config();
  config.scenario.fraction_c_of_rest = 0.0;  // all uniform
  config.scenario.n_hotspots = 0;
  const SimResult r = run_sim(config);
  EXPECT_EQ(r.hotspot_rcv_gbps, 0.0);
  EXPECT_GT(r.non_hotspot_rcv_gbps, 0.0);
  EXPECT_EQ(r.non_hotspot_rcv_gbps, r.all_rcv_gbps);
}

// --- The measurement window: rates and latency are read from the HCAs ----

/// One config of each kind the window is read from: serial, sharded, an
/// incast workload over the default uniform background traffic, and
/// moving hotspots.
std::vector<std::pair<std::string, SimConfig>> window_cases() {
  std::vector<std::pair<std::string, SimConfig>> cases;
  cases.emplace_back("serial silent forest", silent_clos_config());

  SimConfig sharded;
  sharded.topology = TopologyKind::FatTree3;
  sharded.fat_tree3 = topo::FatTree3Params::scale_2k();
  sharded.cc.ccti_increase = 4;
  sharded.cc.ccti_timer = 38;
  sharded.scenario.fraction_b = 1.0;
  sharded.scenario.p = 0.5;
  sharded.scenario.n_hotspots = 2;
  sharded.sim_time = 150 * core::kMicrosecond;
  sharded.warmup = 50 * core::kMicrosecond;
  sharded.shards = 2;
  sharded.threads = 2;
  cases.emplace_back("2-shard ft3-2k", sharded);

  SimConfig workload;
  workload.topology = TopologyKind::SingleSwitch;
  workload.single_switch_nodes = 8;
  workload.workload.name = "incast";
  workload.workload.ranks = 4;
  workload.workload.iterations = 4;
  workload.sim_time = 1500 * core::kMicrosecond;
  workload.warmup = 300 * core::kMicrosecond;
  cases.emplace_back("incast workload", workload);

  SimConfig moving = silent_clos_config();
  moving.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  cases.emplace_back("moving hotspots", moving);
  return cases;
}

/// The window's figures recomputed from each node's HCA count: `full`
/// ran the whole config, `prefix` the same config up to its warmup.
/// Sums run in node order, as Simulation reports them.
SimResult expected_window(Simulation& prefix, Simulation& full,
                          const std::vector<ib::NodeId>& hotspots) {
  const SimConfig& config = full.config();
  const std::int32_t n = full.fabric().node_count();
  std::vector<bool> is_hotspot(static_cast<std::size_t>(n), false);
  for (const ib::NodeId node : hotspots) is_hotspot[static_cast<std::size_t>(node)] = true;
  SimResult r;
  double hotspot_sum = 0.0;
  double non_hotspot_sum = 0.0;
  std::vector<double> non_hotspot_rates;
  for (ib::NodeId node = 0; node < n; ++node) {
    const std::int64_t bytes =
        full.fabric().hca(node).delivered_bytes() - prefix.fabric().hca(node).delivered_bytes();
    const double gbps = core::rate_gbps(bytes, config.sim_time - config.warmup);
    r.delivered_bytes += bytes;
    r.total_throughput_gbps += gbps;
    if (is_hotspot[static_cast<std::size_t>(node)]) {
      hotspot_sum += gbps;
    } else {
      non_hotspot_sum += gbps;
      non_hotspot_rates.push_back(gbps);
    }
  }
  r.hotspot_rcv_gbps = hotspot_sum / static_cast<double>(hotspots.size());
  r.non_hotspot_rcv_gbps = non_hotspot_sum / static_cast<double>(non_hotspot_rates.size());
  r.all_rcv_gbps = r.total_throughput_gbps / static_cast<double>(n);
  r.jain_non_hotspot = core::jain_fairness(non_hotspot_rates);
  return r;
}

TEST(ReceiveWindow, RatesAreTheGrowthOfEachHcaCount) {
  for (const auto& [what, config] : window_cases()) {
    SCOPED_TRACE(what);
    SimConfig warmup_only = config;
    warmup_only.sim_time = config.warmup;
    Simulation prefix(warmup_only);
    (void)prefix.run();

    Simulation full(config);
    // The node class is fixed when the run is built (the initial
    // hotspots, or the workload's ranks), before any hotspot moves.
    const std::vector<ib::NodeId> hotspots =
        full.workload_engine() != nullptr ? full.workload_engine()->rank_nodes()
                                          : full.scenario().schedule().hotspots();
    const SimResult r = full.run();
    EXPECT_EQ(full.effective_shards(), config.shards);

    const SimResult want = expected_window(prefix, full, hotspots);
    EXPECT_GT(want.hotspot_rcv_gbps, 0.0);
    EXPECT_GT(want.non_hotspot_rcv_gbps, 0.0);
    EXPECT_EQ(r.hotspot_rcv_gbps, want.hotspot_rcv_gbps);
    EXPECT_EQ(r.non_hotspot_rcv_gbps, want.non_hotspot_rcv_gbps);
    EXPECT_EQ(r.all_rcv_gbps, want.all_rcv_gbps);
    EXPECT_EQ(r.total_throughput_gbps, want.total_throughput_gbps);
    EXPECT_EQ(r.jain_non_hotspot, want.jain_non_hotspot);
    EXPECT_EQ(r.delivered_bytes, want.delivered_bytes);
  }
}

TEST(LatencyWindow, OneSamplePerDeliveredPacket) {
  // Every HCA adds each data packet it drains to its shard's histogram;
  // the window holds exactly the packets delivered after the warmup, so
  // a shard dropped from the fold or a missed reset shows as a count gap.
  for (const auto& [what, config] : window_cases()) {
    SCOPED_TRACE(what);
    SimConfig warmup_only = config;
    warmup_only.sim_time = config.warmup;
    const SimResult prefix = run_sim(warmup_only);

    Simulation full(config);
    const SimResult r = full.run();
    EXPECT_EQ(full.effective_shards(), config.shards);
    const core::Histogram latency = full.fabric().latency_us();
    EXPECT_GT(prefix.delivered_packets, 0u);
    EXPECT_GT(latency.total(), 0u);
    EXPECT_EQ(latency.total(), r.delivered_packets - prefix.delivered_packets);
    EXPECT_EQ(r.median_latency_us, latency.quantile(0.50));
    EXPECT_EQ(r.p99_latency_us, latency.quantile(0.99));
  }
}

TEST(ReceiveWindow, ZeroLengthWindowReadsZero) {
  // The HCAs deliver traffic during the warmup, but a window that closes
  // where it opens (or before) holds none of it and divides by nothing.
  for (const core::Time sim_time : {300 * core::kMicrosecond, 200 * core::kMicrosecond}) {
    SimConfig config = silent_clos_config();
    config.sim_time = sim_time;
    Simulation sim(config);
    const SimResult r = sim.run();
    EXPECT_GT(sim.fabric().total_delivered_bytes(), 0);
    EXPECT_EQ(r.hotspot_rcv_gbps, 0.0);
    EXPECT_EQ(r.non_hotspot_rcv_gbps, 0.0);
    EXPECT_EQ(r.all_rcv_gbps, 0.0);
    EXPECT_EQ(r.total_throughput_gbps, 0.0);
    EXPECT_EQ(r.jain_non_hotspot, 1.0);
    EXPECT_EQ(r.delivered_bytes, 0);
  }
}

}  // namespace
}  // namespace ibsim::sim
