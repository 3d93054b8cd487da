// Integration tests for the extension features: CC on 2D meshes (the
// paper's open question), per-link rate scaling, and the linear CCT
// fill option.

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

SimConfig mesh_config(bool cc_on) {
  SimConfig config;
  config.topology = TopologyKind::Mesh2D;
  config.mesh_rows = 4;
  config.mesh_cols = 4;
  config.mesh_nodes_per_switch = 2;  // 32 nodes
  config.sim_time = 3 * core::kMillisecond;
  config.warmup = core::kMillisecond;
  config.cc.enabled = cc_on;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.6;
  config.scenario.n_hotspots = 2;
  return config;
}

TEST(MeshExtension, TrafficFlowsOnMesh) {
  SimConfig config = mesh_config(false);
  config.scenario.fraction_c_of_rest = 0.0;
  config.scenario.n_hotspots = 0;
  const SimResult r = run_sim(config);
  EXPECT_GT(r.all_rcv_gbps, 1.0);
  EXPECT_EQ(r.fecn_marked, 0u);
}

TEST(MeshExtension, HotspotsCongestTheMesh) {
  const SimResult r = run_sim(mesh_config(false));
  EXPECT_NEAR(r.hotspot_rcv_gbps, 13.6, 0.2);
  // Victims lose most of their no-congestion throughput (~5 Gb/s on this
  // lightly-subscribed mesh) to HOL blocking.
  EXPECT_LT(r.non_hotspot_rcv_gbps, 2.0);
}

TEST(MeshExtension, CcHelpsOnTheMeshToo) {
  const SimResult off = run_sim(mesh_config(false));
  const SimResult on = run_sim(mesh_config(true));
  // The open question of the paper's conclusion, answered for the mesh:
  // the Table-I-style parameter set still rescues victims...
  EXPECT_GT(on.non_hotspot_rcv_gbps, 2.0 * off.non_hotspot_rcv_gbps);
  EXPECT_GT(on.total_throughput_gbps, off.total_throughput_gbps);
  // ...though the loop is active throughout.
  EXPECT_GT(on.fecn_marked, 0u);
}

TEST(MeshExtension, DeterministicOnMesh) {
  const SimResult a = run_sim(mesh_config(true));
  const SimResult b = run_sim(mesh_config(true));
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(LinkScaling, SlowLinkThrottlesItsTraffic) {
  // A 4x-slowed HCA downlink bounds that node's receive rate.
  SimConfig config;
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 4;
  config.sim_time = core::kMillisecond;
  config.warmup = 200 * core::kMicrosecond;
  config.cc = ib::CcParams::disabled();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.0;  // all uniform
  config.scenario.n_hotspots = 0;

  Simulation sim(config);
  // Slow the switch's port to node 0 down to 4 Gb/s.
  sim.fabric().set_link_rate(sim.fabric().switch_at(0).device_id(), 0, 4.0);
  (void)sim.run();
  // Each HCA's delivered bytes over the whole run.
  const auto rcv_gbps = [&](ib::NodeId node) {
    return core::rate_gbps(sim.fabric().hca(node).delivered_bytes(), config.sim_time);
  };
  EXPECT_LT(rcv_gbps(0), 4.1);
  EXPECT_GT(rcv_gbps(1), 4.1);
}

TEST(LinkScaling, ScaledHcaInjectionSlowsItsSends) {
  SimConfig config;
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 3;
  config.sim_time = core::kMillisecond;
  config.warmup = 0;
  config.cc = ib::CcParams::disabled();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.0;
  config.scenario.n_hotspots = 0;

  Simulation sim(config);
  sim.fabric().set_link_rate(sim.fabric().hca(0).device_id(), 0, 2.0);
  (void)sim.run();
  EXPECT_LT(core::rate_gbps(sim.fabric().hca(0).injected_bytes(), config.sim_time), 2.1);
}

TEST(CctFill, LinearOptionChangesThrottleShape) {
  SimConfig geometric = mesh_config(true);
  SimConfig linear = mesh_config(true);
  linear.cc.cct_fill = ib::CctFill::Linear;
  const SimResult g = run_sim(geometric);
  const SimResult l = run_sim(linear);
  // Both fills resolve the congestion; they differ measurably (the
  // linear table's first step halves a flow's rate).
  EXPECT_GT(g.non_hotspot_rcv_gbps, 0.5);
  EXPECT_GT(l.non_hotspot_rcv_gbps, 0.5);
  EXPECT_NE(g.delivered_bytes, l.delivered_bytes);
}

}  // namespace
}  // namespace ibsim::sim
