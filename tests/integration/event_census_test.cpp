// Exact event census of whole simulations: executed events, every
// events_by_kind slot, and delivered bytes and packets, on the
// busy-fabric scenarios the paper reproductions spend their time in
// (72-node Clos) and on the 10240-HCA fat-tree. Switches elide the link
// wakeup of an output that drained with its grant (DESIGN.md §11), so
// link_free runs below packet_arrive. Any change to how many events the
// fabric runs, or to what it delivers, fails here and must land with
// its new counts.

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <ostream>

#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

/// One run's event census and delivery, compared exactly.
struct Counts {
  std::uint64_t events;
  std::array<std::uint64_t, core::Scheduler::kKindSlots> by_kind;
  std::int64_t delivered_bytes;
  std::uint64_t delivered_packets;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  os << "{events " << c.events << ", by_kind {";
  for (std::size_t i = 0; i < c.by_kind.size(); ++i) os << (i ? ", " : "") << c.by_kind[i];
  return os << "}, bytes " << c.delivered_bytes << ", packets " << c.delivered_packets << "}";
}

/// Run `config` and return its census. The per-kind breakdown must
/// account for every executed event, and the scenario must deliver.
Counts census(const SimConfig& config) {
  const SimResult r = run_sim(config);
  EXPECT_EQ(std::accumulate(r.events_by_kind.begin(), r.events_by_kind.end(), std::uint64_t{0}),
            r.events_executed);
  EXPECT_GT(r.delivered_bytes, 0);
  return {r.events_executed, r.events_by_kind, r.delivered_bytes, r.delivered_packets};
}

/// The 72-node folded Clos of the busy-fabric cells: 500 us from a cold
/// fabric with the scaled presets' fast CC loop.
SimConfig clos72_cell() {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(12, 6, 6);
  config.sim_time = 500 * core::kMicrosecond;
  config.warmup = 0;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  return config;
}

TEST(EventCensus, BusyFabricCell) {
  // Table II's silent forest: 80% of the non-B nodes hammer 2 hotspots.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 2;
  EXPECT_EQ(census(config),
            (Counts{44513, {0, 16016, 8784, 14564, 3760, 628, 761}, 5888000, 2875}));
}

TEST(EventCensus, WindyP50Cell) {
  // Figures 5-8: every background node windy with p = 0.5.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  EXPECT_EQ(census(config),
            (Counts{51679, {0, 18471, 10236, 16917, 4363, 852, 840}, 6961152, 3399}));
}

TEST(EventCensus, MovingHotspotsCell) {
  // Figures 9-10: hotspots relocate every 200 us over a 1 ms window.
  SimConfig config = clos72_cell();
  config.sim_time = 1000 * core::kMicrosecond;
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  EXPECT_EQ(census(config),
            (Counts{164033, {0, 57215, 34548, 55244, 14184, 1094, 1748}, 19771392, 9654}));
}

TEST(EventCensus, CcStormCell) {
  // CC stress: every node aims at 4 hotspots, aggressive marking and a
  // fast timer keep the BECN -> throttle -> recover loop hot.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.9;
  config.scenario.n_hotspots = 4;
  config.cc.threshold_weight = 15;
  config.cc.ccti_timer = 10;
  EXPECT_EQ(census(config),
            (Counts{62492, {0, 20824, 12974, 19283, 4948, 1374, 3089}, 6746112, 3294}));
}

TEST(EventCensus, Uncontended25Cell) {
  // Uniform traffic at 25% of the 13.5 Gb/s cap: queues drain between
  // packets, so nearly every switch link-free wakeup is elided.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 0;
  config.scenario.capacity_gbps = 3.375;
  EXPECT_EQ(census(config),
            (Counts{84076, {0, 28748, 11613, 28744, 7435, 7344, 192}, 15036416, 7342}));
}

TEST(EventCensus, Uncontended11Cell) {
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 0;
  config.scenario.capacity_gbps = 1.5;
  EXPECT_EQ(census(config),
            (Counts{36761, {0, 12572, 5022, 12572, 3272, 3240, 83}, 6635520, 3240}));
}

TEST(EventCensus, WorkloadIncastCell) {
  // The workload engine on the injection path: a 24-rank incast of
  // 1 MiB messages that keeps the hot sink saturated all window.
  SimConfig config = clos72_cell();
  config.workload.name = "incast";
  config.workload.ranks = 24;
  config.workload.message_bytes = 1024 * 1024;
  config.workload.iterations = 8;
  EXPECT_EQ(census(config),
            (Counts{299499, {0, 104025, 63824, 103246, 26548, 1062, 794}, 37666816, 18392}));
}

TEST(EventCensus, Scale10kCell) {
  // The 10240-HCA fat-tree (608 switches, 64-port aggregation and core)
  // with 8 hotspots for 100 us from a cold fabric.
  SimConfig config;
  config.topology = TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_10k();
  config.sim_time = 100 * core::kMicrosecond;
  config.warmup = 0;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 8;
  EXPECT_EQ(census(config),
            (Counts{1283064, {0, 508532, 401388, 311194, 47357, 10376, 4217}, 51656704, 25223}));
}

}  // namespace
}  // namespace ibsim::sim
