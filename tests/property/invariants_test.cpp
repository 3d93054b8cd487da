// Property suite: model invariants that must hold for ANY topology,
// traffic mix, seed, and CC setting. Violations of the credit/lossless
// invariants abort via IBSIM_ASSERT during the runs themselves; here we
// additionally check end-state conservation properties.

#include <gtest/gtest.h>

#include <tuple>

#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

struct InvariantCase {
  TopologyKind topology;
  double fraction_b;
  double p;
  std::int32_t n_hotspots;
  bool cc_on;
  std::uint64_t seed;
};

/// Instance-name prefixes, fixed here so the test names stay stable
/// whatever the topologies are called elsewhere.
const char* topology_label(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::SingleSwitch: return "single_switch";
    case TopologyKind::FoldedClos: return "folded_clos";
    case TopologyKind::LinearChain: return "linear_chain";
    case TopologyKind::Dumbbell: return "dumbbell";
    case TopologyKind::FatTree3: return "fat_tree3";
    case TopologyKind::Mesh2D: return "mesh2d";
  }
  return "unknown";
}

std::string case_name(const ::testing::TestParamInfo<InvariantCase>& info) {
  const InvariantCase& c = info.param;
  std::string name = topology_label(c.topology);
  name += "_b" + std::to_string(static_cast<int>(c.fraction_b * 100));
  name += "_p" + std::to_string(static_cast<int>(c.p * 100));
  name += "_h" + std::to_string(c.n_hotspots);
  name += c.cc_on ? "_ccon" : "_ccoff";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class InvariantTest : public ::testing::TestWithParam<InvariantCase> {
 protected:
  SimConfig make_config() const {
    const InvariantCase& c = GetParam();
    SimConfig config;
    config.topology = c.topology;
    config.clos = topo::FoldedClosParams::scaled(4, 2, 3);
    config.single_switch_nodes = 8;
    config.chain_switches = 3;
    config.chain_nodes_per_switch = 3;
    config.dumbbell_nodes_per_side = 4;
    config.sim_time = core::kMillisecond;
    config.warmup = 200 * core::kMicrosecond;
    config.seed = c.seed;
    config.cc = c.cc_on ? ib::CcParams::paper_table1() : ib::CcParams::disabled();
    config.cc.ccti_timer = 20;  // faster recovery on tiny fixtures
    config.scenario.fraction_b = c.fraction_b;
    config.scenario.p = c.p;
    config.scenario.n_hotspots = c.n_hotspots;
    return config;
  }
};

TEST_P(InvariantTest, ConservationAndBoundsHold) {
  Simulation sim(make_config());
  const SimResult r = sim.run();

  // 1. Conservation: every byte delivered was injected; the difference
  //    is bounded by what the fabric can buffer in flight.
  const std::int64_t injected = sim.fabric().total_injected_bytes();
  const std::int64_t delivered = sim.fabric().total_delivered_bytes();
  EXPECT_LE(delivered, injected);
  std::int64_t buffer_bound = 0;
  for (std::size_t i = 0; i < sim.fabric().switch_count(); ++i) {
    auto& sw = sim.fabric().switch_at(i);
    for (std::int32_t port = 0; port < sw.n_ports(); ++port) {
      if (!sw.output(port).connected) continue;
      for (ib::Vl vl = 0; vl < sw.bank().n_vls(); ++vl) {
        buffer_bound += sw.bank().credit(port, vl).capacity();
      }
    }
  }
  for (ib::NodeId n = 0; n < sim.fabric().node_count(); ++n) {
    const fabric::PortVlBank& bank = sim.fabric().hca(n).bank();
    for (ib::Vl vl = 0; vl < bank.n_vls(); ++vl) {
      buffer_bound += bank.credit(0, vl).capacity();
    }
  }
  EXPECT_LE(injected - delivered, buffer_bound)
      << "more bytes in flight than the fabric can buffer";

  // 2. Live packets are bounded by buffering too (counting staged and
  //    queued CNPs generously via the same bound plus the CNP queues).
  EXPECT_GE(sim.fabric().arena().live(), 0);

  // 3. Receive rates respect the physical ceilings, over the whole run
  //    as over the window.
  for (ib::NodeId n = 0; n < sim.fabric().node_count(); ++n) {
    EXPECT_LE(core::rate_gbps(sim.fabric().hca(n).delivered_bytes(), sim.config().sim_time),
              13.6 + 0.05);
  }
  EXPECT_LE(r.hotspot_rcv_gbps, 13.6 + 0.05);

  // 4. The CC counters are consistent: BECNs received never exceed CNPs
  //    sent, CNPs never exceed FECN-marked deliveries.
  EXPECT_LE(r.becn_received, r.cnps_sent);
  if (!GetParam().cc_on) {
    EXPECT_EQ(r.fecn_marked, 0u);
    EXPECT_EQ(r.cnps_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvariantTest,
    ::testing::Values(
        InvariantCase{TopologyKind::SingleSwitch, 0.0, 0.0, 1, false, 1},
        InvariantCase{TopologyKind::SingleSwitch, 0.0, 0.0, 1, true, 1},
        InvariantCase{TopologyKind::SingleSwitch, 1.0, 0.5, 2, true, 2},
        InvariantCase{TopologyKind::FoldedClos, 0.0, 0.0, 2, false, 3},
        InvariantCase{TopologyKind::FoldedClos, 0.0, 0.0, 2, true, 3},
        InvariantCase{TopologyKind::FoldedClos, 0.5, 0.3, 2, true, 4},
        InvariantCase{TopologyKind::FoldedClos, 1.0, 0.6, 4, true, 5},
        InvariantCase{TopologyKind::FoldedClos, 1.0, 1.0, 1, false, 6},
        InvariantCase{TopologyKind::FoldedClos, 0.25, 0.9, 3, true, 7},
        InvariantCase{TopologyKind::LinearChain, 0.0, 0.0, 1, false, 8},
        InvariantCase{TopologyKind::LinearChain, 0.5, 0.5, 2, true, 9},
        InvariantCase{TopologyKind::Dumbbell, 0.0, 0.0, 1, true, 10},
        InvariantCase{TopologyKind::Dumbbell, 1.0, 0.7, 2, true, 11},
        InvariantCase{TopologyKind::Dumbbell, 1.0, 0.7, 2, false, 11}),
    case_name);

/// Moving-hotspot variant of the same conservation checks.
class MovingInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(MovingInvariantTest, ConservationUnderMovement) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);
  config.sim_time = 2 * core::kMillisecond;
  config.warmup = 200 * core::kMicrosecond;
  config.seed = static_cast<std::uint64_t>(GetParam());
  config.cc.ccti_timer = 20;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.6;
  config.scenario.n_hotspots = 3;
  config.scenario.hotspot_lifetime = 100 * core::kMicrosecond * (1 + GetParam());

  Simulation sim(config);
  const SimResult r = sim.run();
  EXPECT_GT(r.delivered_bytes, 0);
  EXPECT_LE(sim.fabric().total_delivered_bytes(), sim.fabric().total_injected_bytes());
  EXPECT_LE(r.becn_received, r.cnps_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovingInvariantTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace ibsim::sim
