// Sharded-engine equivalence (DESIGN.md §15).
//
// The conservative-lookahead engine must be invisible three ways:
//  - shards=1 routes through the untouched serial engine, bit-identical
//    to a config that never mentions shards (and to every golden);
//  - a fixed shard count is deterministic: worker-thread count,
//    repeated runs and a shared or private snapshot change nothing;
//  - sharded vs serial is *stats*-equivalent — cross-shard interleaving
//    may legitimately reorder same-timestamp arbitration, so headline
//    rates agree within a tolerance rather than bitwise.

#include <gtest/gtest.h>

#include <string>

#include "expect_identical.hpp"
#include "sim/shard_engine.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "topo/builders.hpp"

namespace ibsim::sim {
namespace {

void expect_near_rel(double a, double b, double tol, const std::string& what) {
  const double scale = std::max(std::abs(a), std::abs(b));
  if (scale < 1e-9) return;  // both ~zero
  EXPECT_LE(std::abs(a - b), tol * scale) << what << ": " << a << " vs " << b;
}

/// Serial vs sharded must tell the same congestion story: identical
/// event ordering is not promised, the paper's numbers are.
void expect_stats_equivalent(const SimResult& serial, const SimResult& sharded,
                             double tol, const std::string& what) {
  expect_near_rel(serial.hotspot_rcv_gbps, sharded.hotspot_rcv_gbps, tol,
                  what + " hotspot rate");
  expect_near_rel(serial.non_hotspot_rcv_gbps, sharded.non_hotspot_rcv_gbps, tol,
                  what + " victim rate");
  expect_near_rel(serial.total_throughput_gbps, sharded.total_throughput_gbps, tol,
                  what + " total throughput");
  expect_near_rel(static_cast<double>(serial.delivered_bytes),
                  static_cast<double>(sharded.delivered_bytes), tol,
                  what + " delivered bytes");
  expect_near_rel(serial.median_latency_us, sharded.median_latency_us, 2 * tol,
                  what + " median latency");
}

SimConfig small_clos_config() {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 4);
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.6;
  config.scenario.n_hotspots = 2;
  config.sim_time = 1500 * core::kMicrosecond;
  config.warmup = 300 * core::kMicrosecond;
  return config;
}

SimConfig ft3_2k_config() {
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

TEST(ShardEquivalence, LookaheadIsThePacketCrossingFloor) {
  fabric::FabricParams params;
  // Defaults: link 30ns, credit 50ns, switch 200ns, HCA rx 300ns — the
  // tightest crossing is a credit refund at link + credit delay.
  EXPECT_EQ(shard_lookahead(params), params.link_delay + params.credit_delay);
  params.credit_delay = 1000 * core::kNanosecond;
  EXPECT_EQ(shard_lookahead(params), params.link_delay + params.switch_delay);
}

TEST(ShardEquivalence, Shards1BitIdenticalToSerialAcrossTaxonomy) {
  // The congestion taxonomy's corner configs: oversubscribed clos
  // hotspot, CC off, moving hotspots, and victim-pattern dumbbell.
  std::vector<SimConfig> taxonomy;
  taxonomy.push_back(small_clos_config());
  taxonomy.push_back(small_clos_config());
  taxonomy.back().cc = ib::CcParams::disabled();
  taxonomy.push_back(small_clos_config());
  taxonomy.back().scenario.hotspot_lifetime = 150 * core::kMicrosecond;
  taxonomy.push_back(small_clos_config());
  taxonomy.back().topology = TopologyKind::Dumbbell;
  taxonomy.back().dumbbell_nodes_per_side = 6;

  for (std::size_t i = 0; i < taxonomy.size(); ++i) {
    SimConfig plain = taxonomy[i];
    const SimResult baseline = run_sim(plain);
    SimConfig pinned = taxonomy[i];
    pinned.shards = 1;
    pinned.threads = 4;  // worker knob must be inert on the serial engine
    Simulation sim(pinned);
    EXPECT_EQ(sim.effective_shards(), 1);
    const SimResult r = sim.run();
    expect_identical(baseline, r, "taxonomy config " + std::to_string(i));
  }
}

TEST(ShardEquivalence, ShardedDeterministicAcrossWorkerCounts) {
  SimConfig config = small_clos_config();
  config.shards = 4;

  SimResult by_threads[3];
  const std::int32_t threads[3] = {1, 2, 4};
  for (int t = 0; t < 3; ++t) {
    SimConfig c = config;
    c.threads = threads[t];
    Simulation sim(c);
    EXPECT_EQ(sim.effective_shards(), 4);
    by_threads[t] = sim.run();
  }
  expect_identical(by_threads[0], by_threads[1], "shards=4, 1 vs 2 workers");
  expect_identical(by_threads[0], by_threads[2], "shards=4, 1 vs 4 workers");

  // Run-to-run determinism at a fixed shard count.
  SimConfig again = config;
  again.threads = 2;
  expect_identical(by_threads[0], run_sim(again), "shards=4, repeat run");
}

TEST(ShardEquivalence, ShardedDeterministicWithMovingHotspots) {
  // Hotspot moves are global events the coordinator runs between
  // windows; they must not perturb determinism.
  SimConfig config = small_clos_config();
  config.shards = 4;
  config.threads = 2;
  config.scenario.hotspot_lifetime = 150 * core::kMicrosecond;
  const SimResult a = run_sim(config);
  const SimResult b = run_sim(config);
  expect_identical(a, b, "moving hotspots, shards=4 repeat");
}

TEST(ShardEquivalence, ShardReplayBitIdentical) {
  // The per-shard schedulers and the sharded fabric must construct to
  // the same state whether the topology snapshot is shared or built
  // privately, so two runs on one snapshot and one on its own stay
  // bit-identical with shards > 1, as ScaleInvariants pins for the
  // serial engine.
  SimConfig config = small_clos_config();
  config.shards = 4;
  config.threads = 2;
  const auto snapshot = build_snapshot(config);
  const SimResult shared = Simulation(config, snapshot).run();
  const SimResult shared2 = Simulation(config, snapshot).run();
  const SimResult own = run_sim(config);
  expect_identical(shared, own, "shards=4, shared vs own snapshot");
  expect_identical(shared, shared2, "shards=4, first vs second run on one snapshot");
}

TEST(ShardEquivalence, ShardedStatsEquivalentSmallClos) {
  SimConfig serial = small_clos_config();
  SimConfig sharded = small_clos_config();
  sharded.shards = 4;
  sharded.threads = 2;
  expect_stats_equivalent(run_sim(serial), run_sim(sharded), 0.15, "small clos");
}

TEST(ShardEquivalence, ShardedStatsEquivalentFt3_2k) {
  SimConfig serial = ft3_2k_config();
  SimConfig sharded = ft3_2k_config();
  sharded.shards = 8;
  sharded.threads = 2;
  Simulation sim(sharded);
  EXPECT_EQ(sim.effective_shards(), 8);
  expect_stats_equivalent(run_sim(serial), sim.run(), 0.15, "ft3-2k");
}

TEST(ShardEquivalence, ShardGaugesPublishedWithCountersTelemetry) {
  // End-of-run counters are the one telemetry mode the sharded engine
  // keeps; the run must label itself with the sched.shard.* gauges.
  SimConfig config = small_clos_config();
  config.shards = 4;
  config.threads = 2;
  config.telemetry.counters = true;
  const SimResult r = run_sim(config);
  ASSERT_TRUE(r.counters.count("sched.shard.count"));
  EXPECT_EQ(r.counters.at("sched.shard.count"), 4);
  ASSERT_TRUE(r.counters.count("sched.shard.windows"));
  EXPECT_GT(r.counters.at("sched.shard.windows"), 0);
  ASSERT_TRUE(r.counters.count("sched.shard.crossed_packets"));
  EXPECT_GT(r.counters.at("sched.shard.crossed_packets"), 0);
  ASSERT_TRUE(r.counters.count("sched.shard.absorbed_events"));
  EXPECT_GT(r.counters.at("sched.shard.absorbed_events"), 0);
  ASSERT_TRUE(r.counters.count("sched.shard.cut_links"));
  EXPECT_GT(r.counters.at("sched.shard.cut_links"), 0);
}

TEST(ShardEquivalence, WorkloadRunsFallBackToSerial) {
  // Feature gates: workload runs document a serial fallback rather than
  // silently racing; the run must still complete and report serial.
  SimConfig config = small_clos_config();
  config.shards = 4;
  config.workload.name = "incast";
  config.workload.ranks = 8;
  config.workload.message_bytes = 16 * 1024;
  Simulation sim(config);
  EXPECT_EQ(sim.effective_shards(), 1);
  const SimResult r = sim.run();
  EXPECT_TRUE(r.workload.ran);
}

TEST(ShardEquivalence, AutoShardsClampToSwitchCount) {
  // shards=0 derives from the resolved thread count; a fabric with
  // fewer switches than that must clamp, never leave empty shards.
  SimConfig config = small_clos_config();
  config.shards = 0;
  config.threads = 64;  // far above the 6 switches of the 4x2 clos
  Simulation sim(config);
  EXPECT_GE(sim.effective_shards(), 1);
  EXPECT_LE(sim.effective_shards(), 6);
  (void)sim.run();
}

}  // namespace
}  // namespace ibsim::sim
