// A/B equivalence of the fabric event fast path (FabricParams::fast_path):
// lazy link wakeups and busy-aware credit handling must change *only*
// how many scheduler events run, never what the simulation computes.
// Every behavioural SimResult field is required to be bit-identical
// fast-on vs. fast-off across the paper's scenario taxonomy, while
// events_executed must strictly drop (DESIGN.md §11 carries the
// determinism argument).
//
// The *Cell cases also pin both sides' exact event census: executed
// events, every events_by_kind slot, and delivered bytes and packets,
// on the busy-fabric scenarios the paper reproductions spend their
// time in (72-node Clos) and on the 10240-HCA fat-tree. Any change to
// how many events either path runs, or to what it delivers, fails here
// and must land with its new counts.

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <ostream>

#include "fabric/events.hpp"
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

Counts counts_of(const SimResult& r) {
  return {r.events_executed, r.events_by_kind, r.delivered_bytes, r.delivered_packets};
}

struct FastSlow {
  Counts fast;
  Counts slow;
};

SimConfig base_config(std::uint64_t seed) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 200 * core::kMicrosecond;
  config.seed = seed;
  return config;
}

/// Run `config` with the fast path on and off and require bit-identical
/// behaviour. events_executed is the one field allowed — required — to
/// differ: the fast path must execute strictly fewer events. Returns
/// both runs' counts for the cases that pin them.
FastSlow expect_fast_path_equivalent(SimConfig config) {
  config.fabric.fast_path = true;
  const SimResult fast = run_sim(config);
  config.fabric.fast_path = false;
  const SimResult slow = run_sim(config);

  EXPECT_EQ(fast.total_throughput_gbps, slow.total_throughput_gbps);
  EXPECT_EQ(fast.hotspot_rcv_gbps, slow.hotspot_rcv_gbps);
  EXPECT_EQ(fast.non_hotspot_rcv_gbps, slow.non_hotspot_rcv_gbps);
  EXPECT_EQ(fast.all_rcv_gbps, slow.all_rcv_gbps);
  EXPECT_EQ(fast.jain_non_hotspot, slow.jain_non_hotspot);
  EXPECT_EQ(fast.median_latency_us, slow.median_latency_us);
  EXPECT_EQ(fast.p99_latency_us, slow.p99_latency_us);
  EXPECT_EQ(fast.fecn_marked, slow.fecn_marked);
  EXPECT_EQ(fast.cnps_sent, slow.cnps_sent);
  EXPECT_EQ(fast.becn_received, slow.becn_received);
  EXPECT_EQ(fast.delivered_bytes, slow.delivered_bytes);
  EXPECT_EQ(fast.delivered_packets, slow.delivered_packets);
  EXPECT_GT(fast.delivered_bytes, 0);  // the scenario actually ran

  EXPECT_LT(fast.events_executed, slow.events_executed);
  // The savings come only from link wakeups: packet arrivals, sink
  // drains and credit returns are real work and never elided.
  EXPECT_EQ(fast.events_by_kind[fabric::kEvPacketArrive],
            slow.events_by_kind[fabric::kEvPacketArrive]);
  EXPECT_EQ(fast.events_by_kind[fabric::kEvSinkFree],
            slow.events_by_kind[fabric::kEvSinkFree]);
  EXPECT_LE(fast.events_by_kind[fabric::kEvLinkFree],
            slow.events_by_kind[fabric::kEvLinkFree]);
  EXPECT_EQ(fast.events_by_kind[fabric::kEvCreditUpdate],
            slow.events_by_kind[fabric::kEvCreditUpdate]);

  // The per-kind breakdown accounts for every executed event, both ways.
  const auto sum = [](const SimResult& r) {
    return std::accumulate(r.events_by_kind.begin(), r.events_by_kind.end(),
                           std::uint64_t{0});
  };
  EXPECT_EQ(sum(fast), fast.events_executed);
  EXPECT_EQ(sum(slow), slow.events_executed);
  return {counts_of(fast), counts_of(slow)};
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

TEST(FastPathEquivalence, Table2SilentForest) {
  // Table II: silent congestion trees (no background traffic), CC on.
  // Every node has a traffic source, so only switch outputs elide
  // wakeups here.
  SimConfig config = base_config(42);
  config.scenario.fraction_b = 0.0;
  config.scenario.n_hotspots = 2;
  expect_fast_path_equivalent(config);
}

TEST(FastPathEquivalence, Table2SilentForestCcOff) {
  SimConfig config = base_config(42);
  config.scenario.fraction_b = 0.0;
  config.scenario.n_hotspots = 2;
  config.cc.enabled = false;
  expect_fast_path_equivalent(config);
}

TEST(FastPathEquivalence, WindyForestHalfP) {
  // Figures 5-8 regime: all background nodes windy with p = 0.5. Busy
  // outputs keep queued work, so eager and elided wakeups interleave.
  SimConfig config = base_config(7);
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  expect_fast_path_equivalent(config);
}

TEST(FastPathEquivalence, MovingHotspots) {
  // Figures 9-10 regime: relocating congestion trees nudge idle HCAs,
  // exercising deferred-wakeup materialization from external events.
  SimConfig config = base_config(11);
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  expect_fast_path_equivalent(config);
}

TEST(FastPathEquivalence, WindyForestHalfPSecondSeed) {
  // The windy regime again on another seed: a different interleaving of
  // eager and elided wakeups over the same traffic mix.
  SimConfig config = base_config(42);
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  expect_fast_path_equivalent(config);
}

TEST(FastPathEquivalence, BusyFabricCell) {
  // Table II's silent forest: 80% of the non-B nodes hammer 2 hotspots.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 2;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast, (Counts{44513, {0, 16016, 8784, 14564, 3760, 628, 761}, 5888000, 2875}));
  EXPECT_EQ(counts.slow, (Counts{51735, {0, 16016, 16006, 14564, 3760, 628, 761}, 5888000, 2875}));
}

TEST(FastPathEquivalence, WindyP50Cell) {
  // Figures 5-8: every background node windy with p = 0.5.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast, (Counts{51679, {0, 18471, 10236, 16917, 4363, 852, 840}, 6961152, 3399}));
  EXPECT_EQ(counts.slow, (Counts{59909, {0, 18471, 18466, 16917, 4363, 852, 840}, 6961152, 3399}));
}

TEST(FastPathEquivalence, MovingHotspotsCell) {
  // Figures 9-10: hotspots relocate every 200 us over a 1 ms window.
  SimConfig config = clos72_cell();
  config.sim_time = 1000 * core::kMicrosecond;
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast,
            (Counts{164033, {0, 57215, 34548, 55244, 14184, 1094, 1748}, 19771392, 9654}));
  EXPECT_EQ(counts.slow,
            (Counts{186675, {0, 57215, 57190, 55244, 14184, 1094, 1748}, 19771392, 9654}));
}

TEST(FastPathEquivalence, CcStormCell) {
  // CC stress: every node aims at 4 hotspots, aggressive marking and a
  // fast timer keep the BECN -> throttle -> recover loop hot.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.9;
  config.scenario.n_hotspots = 4;
  config.cc.threshold_weight = 15;
  config.cc.ccti_timer = 10;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast,
            (Counts{62492, {0, 20824, 12974, 19283, 4948, 1374, 3089}, 6746112, 3294}));
  EXPECT_EQ(counts.slow,
            (Counts{70323, {0, 20824, 20805, 19283, 4948, 1374, 3089}, 6746112, 3294}));
}

TEST(FastPathEquivalence, Uncontended25Cell) {
  // Uniform traffic at 25% of the 13.5 Gb/s cap: queues drain between
  // packets, so nearly every switch link-free wakeup is elided.
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 0;
  config.scenario.capacity_gbps = 3.375;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast,
            (Counts{84076, {0, 28748, 11613, 28744, 7435, 7344, 192}, 15036416, 7342}));
  EXPECT_EQ(counts.slow,
            (Counts{101211, {0, 28748, 28748, 28744, 7435, 7344, 192}, 15036416, 7342}));
}

TEST(FastPathEquivalence, Uncontended11Cell) {
  SimConfig config = clos72_cell();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 0;
  config.scenario.capacity_gbps = 1.5;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast, (Counts{36761, {0, 12572, 5022, 12572, 3272, 3240, 83}, 6635520, 3240}));
  EXPECT_EQ(counts.slow, (Counts{44311, {0, 12572, 12572, 12572, 3272, 3240, 83}, 6635520, 3240}));
}

TEST(FastPathEquivalence, WorkloadIncastCell) {
  // The workload engine on the injection path: a 24-rank incast of
  // 1 MiB messages that keeps the hot sink saturated all window.
  SimConfig config = clos72_cell();
  config.workload.name = "incast";
  config.workload.ranks = 24;
  config.workload.message_bytes = 1024 * 1024;
  config.workload.iterations = 8;
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast,
            (Counts{299499, {0, 104025, 63824, 103246, 26548, 1062, 794}, 37666816, 18392}));
  EXPECT_EQ(counts.slow,
            (Counts{339596, {0, 104025, 103921, 103246, 26548, 1062, 794}, 37666816, 18392}));
}

TEST(FastPathEquivalence, Scale10kCell) {
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
  const FastSlow counts = expect_fast_path_equivalent(config);
  EXPECT_EQ(counts.fast,
            (Counts{1283064, {0, 508532, 401388, 311194, 47357, 10376, 4217}, 51656704, 25223}));
  EXPECT_EQ(counts.slow,
            (Counts{1390008, {0, 508532, 508332, 311194, 47357, 10376, 4217}, 51656704, 25223}));
}

}  // namespace
}  // namespace ibsim::sim
