// A/B equivalence of the fabric event fast path (FabricParams::fast_path):
// lazy link wakeups, busy-aware credit handling and coalesced credit
// returns must change *only* how many scheduler events run, never what
// the simulation computes. Every behavioural SimResult field is required
// to be bit-identical fast-on vs. fast-off across the paper's scenario
// taxonomy, while events_executed must strictly drop (DESIGN.md §11
// carries the determinism argument).

#include <gtest/gtest.h>

#include <numeric>

#include "fabric/events.hpp"
#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

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
/// differ: the fast path must execute strictly fewer events.
void expect_fast_path_equivalent(SimConfig config) {
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
  // The savings come from exactly the kinds the fast path touches:
  // packet arrivals and sink drains are real work and never elided.
  EXPECT_EQ(fast.events_by_kind[fabric::kEvPacketArrive],
            slow.events_by_kind[fabric::kEvPacketArrive]);
  EXPECT_EQ(fast.events_by_kind[fabric::kEvSinkFree],
            slow.events_by_kind[fabric::kEvSinkFree]);
  EXPECT_LE(fast.events_by_kind[fabric::kEvLinkFree],
            slow.events_by_kind[fabric::kEvLinkFree]);
  EXPECT_LE(fast.events_by_kind[fabric::kEvCreditUpdate],
            slow.events_by_kind[fabric::kEvCreditUpdate]);

  // The per-kind breakdown accounts for every executed event, both ways.
  const auto sum = [](const SimResult& r) {
    return std::accumulate(r.events_by_kind.begin(), r.events_by_kind.end(),
                           std::uint64_t{0});
  };
  EXPECT_EQ(sum(fast), fast.events_executed);
  EXPECT_EQ(sum(slow), slow.events_executed);
}

TEST(FastPathEquivalence, Table2SilentForest) {
  // Table II: silent congestion trees (no background traffic), CC on.
  // Victims answer with CNPs only — the HCA-side wakeup elision's case.
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

}  // namespace
}  // namespace ibsim::sim
