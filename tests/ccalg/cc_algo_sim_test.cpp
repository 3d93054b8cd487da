// Full-simulation guards for the pluggable CC subsystem.
//
// The golden tests pin `--cc-algo=iba_a10` to SimResults captured from
// the tree as it was BEFORE the CcAlgorithm extraction (same seeds, same
// scenarios, exact hexfloat values). The simulator is deterministic down
// to the bit: integer-picosecond time, IEEE-754 double arithmetic with
// no FMA contraction in generic builds, and no std::random. If one of
// these fails, the refactor changed simulated behaviour — which the
// whole PR promises not to.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

SimConfig silent_config() {
  SimConfig c = base_config(42);
  c.scenario.fraction_b = 0.0;
  c.scenario.n_hotspots = 2;
  return c;
}

SimConfig windy_config() {
  SimConfig c = base_config(7);
  c.scenario.fraction_b = 1.0;
  c.scenario.p = 0.5;
  c.scenario.n_hotspots = 2;
  return c;
}

SimConfig moving_config() {
  SimConfig c = base_config(11);
  c.scenario.fraction_b = 0.5;
  c.scenario.p = 0.4;
  c.scenario.n_hotspots = 2;
  c.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  return c;
}

struct Golden {
  double hotspot_rcv_gbps;
  double non_hotspot_rcv_gbps;
  double all_rcv_gbps;
  double total_throughput_gbps;
  double jain_non_hotspot;
  double median_latency_us;
  double p99_latency_us;
  std::uint64_t fecn_marked;
  std::uint64_t cnps_sent;
  std::uint64_t becn_received;
  std::int64_t delivered_bytes;
  std::uint64_t events_executed;
};

void expect_matches(const SimResult& r, const Golden& g) {
  // Bitwise comparisons on purpose: EXPECT_DOUBLE_EQ's 4-ULP slack would
  // hide a real behaviour change.
  EXPECT_EQ(r.hotspot_rcv_gbps, g.hotspot_rcv_gbps);
  EXPECT_EQ(r.non_hotspot_rcv_gbps, g.non_hotspot_rcv_gbps);
  EXPECT_EQ(r.all_rcv_gbps, g.all_rcv_gbps);
  EXPECT_EQ(r.total_throughput_gbps, g.total_throughput_gbps);
  EXPECT_EQ(r.jain_non_hotspot, g.jain_non_hotspot);
  EXPECT_EQ(r.median_latency_us, g.median_latency_us);
  EXPECT_EQ(r.p99_latency_us, g.p99_latency_us);
  EXPECT_EQ(r.fecn_marked, g.fecn_marked);
  EXPECT_EQ(r.cnps_sent, g.cnps_sent);
  EXPECT_EQ(r.becn_received, g.becn_received);
  EXPECT_EQ(r.delivered_bytes, g.delivered_bytes);
  EXPECT_EQ(r.events_executed, g.events_executed);
}

// Captured 2026-08-06 at commit 9ba5484 (pre-ccalg tree), g++ -O2.
// Rate/Jain fields were re-captured when the measurement window was
// pinned to the configured [warmup, sim_time] instants (it previously
// ended at the last executed event): identical traffic, identical event
// counts, slightly different rate denominators. events_executed was
// re-captured when the fabric's one-event-per-action chain was retired:
// the captures predate the switches' elided link wakeups, and every
// other field held bit for bit.
TEST(IbaA10Golden, SilentForestMatchesPreRefactorTree) {
  SimConfig c = silent_config();
  c.cc_algo = "iba_a10";
  expect_matches(run_sim(c),
                 {0x1.db22d0e560418p+2, 0x1.b43526527a205p+0, 0x1.5421c044284ep+1,
                  0x1.fe32a0663c75p+4, 0x1.d1aa986978624p-1, 0x1.d7a125fd84587p+5,
                  0x1.cf01696969696p+7, 1268, 999, 999, 3188736, 33763});
}

TEST(IbaA10Golden, WindyForestMatchesPreRefactorTree) {
  SimConfig c = windy_config();
  c.cc_algo = "iba_a10";
  expect_matches(run_sim(c),
                 {0x1.23a29c779a6b5p+3, 0x1.86db50f40e5a3p+1, 0x1.041195e2e41ebp+2,
                  0x1.861a60d4562e1p+5, 0x1.f4592e45b6e72p-1, 0x1.b16bb60131877p+5,
                  0x1.c61ap+7, 1439, 1083, 1083, 4876288, 45655});
}

TEST(IbaA10Golden, MovingHotspotsMatchesPreRefactorTree) {
  SimConfig c = moving_config();
  c.cc_algo = "iba_a10";
  expect_matches(run_sim(c),
                 {0x1.cf56eac860568p+2, 0x1.63baba7b9170ep+2, 0x1.75aa17ddb3ec8p+2,
                  0x1.183f91e646f16p+6, 0x1.a4ca7589f1261p-1, 0x1.faff457703668p+5,
                  0x1.f1d1dc47711dcp+7, 3593, 2764, 2760, 7006208, 79035});
}

// The same three scenarios under the rate-based algorithms, captured
// 2026-10-17 at commit 0f5cc7f (the last tree with dense per-destination
// flow state), g++ -O2 Release. They pin
// RateBasedAlgorithm's flow bookkeeping across storage rewrites.
TEST(DcqcnGolden, SilentForest) {
  SimConfig c = silent_config();
  c.cc_algo = "dcqcn";
  expect_matches(run_sim(c),
                 {0x1.3d31b9b66f933p+0, 0x1.36e71cda2b5a2p+0, 0x1.37f38c5436b9p+0,
                  0x1.d3ed527e52158p+3, 0x1.d26654be7711cp-1, 0x1.388p+5,
                  0x1.34ffa4367fa44p+6, 371, 194, 194, 1462272, 13388});
}

TEST(DcqcnGolden, WindyForest) {
  SimConfig c = windy_config();
  c.cc_algo = "dcqcn";
  expect_matches(run_sim(c),
                 {0x1.3a92a30553261p+0, 0x1.6e37154003255p+1, 0x1.4b64c9f5c98cfp+1,
                  0x1.f1172ef0ae536p+4, 0x1.f3428a7e7db56p-1, 0x1.384b43ab9f79p+5,
                  0x1.35343ab9f78ffp+6, 707, 453, 453, 3106816, 31494});
}

TEST(DcqcnGolden, MovingHotspots) {
  SimConfig c = moving_config();
  c.cc_algo = "dcqcn";
  expect_matches(run_sim(c),
                 {0x1.ea35935fc3b4fp+0, 0x1.07746887a8d65p+1, 0x1.046578b907ac5p+1,
                  0x1.869835158b827p+4, 0x1.c02237901124dp-1, 0x1.388p+5,
                  0x1.355aa180dbeb6p+6, 589, 391, 391, 2441216, 24551});
}

TEST(AimdGolden, SilentForest) {
  SimConfig c = silent_config();
  c.cc_algo = "aimd";
  expect_matches(run_sim(c),
                 {0x1.667b5f1bef49dp+2, 0x1.4df8b1572580dp+0, 0x1.02a61442f4b8fp+1,
                  0x1.83f91e646f156p+4, 0x1.d2ffad35810cap-1, 0x1.388p+5,
                  0x1.3555306eb3e45p+6, 370, 193, 193, 2424832, 18541});
}

TEST(AimdGolden, WindyForest) {
  SimConfig c = windy_config();
  c.cc_algo = "aimd";
  expect_matches(run_sim(c),
                 {0x1.54c985f06f694p+2, 0x1.11ada76d97b31p+1, 0x1.55a9382b78e2fp+1,
                  0x1.003eea209aaa3p+5, 0x1.f7ae153cb4eadp-1, 0x1.388p+5,
                  0x1.354d95eefa1b8p+6, 675, 423, 423, 3203072, 31531});
}

TEST(AimdGolden, MovingHotspots) {
  SimConfig c = moving_config();
  c.cc_algo = "aimd";
  expect_matches(run_sim(c),
                 {0x1.522a6f3f52fc2p+1, 0x1.5ca6ca03c4b0ap+1, 0x1.5ae7658db1bd4p+1,
                  0x1.042d8c2a454dfp+5, 0x1.b923aea3e58bbp-1, 0x1.388p+5,
                  0x1.3559f464982e7p+6, 613, 423, 423, 3252224, 28664});
}

// --- cross-algorithm properties --------------------------------------------

TEST(CcAlgoSim, EveryAlgorithmIsDeterministic) {
  for (const char* algo : {"iba_a10", "dcqcn", "aimd", "none"}) {
    SimConfig c = silent_config();
    c.cc_algo = algo;
    const SimResult a = run_sim(c);
    const SimResult b = run_sim(c);
    EXPECT_EQ(a.events_executed, b.events_executed) << algo;
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << algo;
    EXPECT_EQ(a.all_rcv_gbps, b.all_rcv_gbps) << algo;
    EXPECT_EQ(a.becn_received, b.becn_received) << algo;
  }
}

TEST(CcAlgoSim, NoneMatchesDisabledCc) {
  // The explicit passthrough must reproduce cc.enabled=false exactly:
  // same events, same bytes, zero notifications.
  SimConfig with_none = silent_config();
  with_none.cc_algo = "none";
  SimConfig disabled = silent_config();
  disabled.cc.enabled = false;
  const SimResult a = run_sim(with_none);
  const SimResult b = run_sim(disabled);
  EXPECT_EQ(a.cnps_sent, 0u);
  EXPECT_EQ(a.becn_received, 0u);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.all_rcv_gbps, b.all_rcv_gbps);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(CcAlgoSim, ReactiveAlgorithmsThrottleTheSilentForest) {
  // Behaviour sanity, not equivalence: every reactive algorithm must
  // receive BECNs and lift victim throughput above the none baseline.
  SimConfig base = silent_config();
  base.cc_algo = "none";
  const SimResult none = run_sim(base);
  for (const char* algo : {"iba_a10", "dcqcn", "aimd"}) {
    SimConfig c = silent_config();
    c.cc_algo = algo;
    const SimResult r = run_sim(c);
    EXPECT_GT(r.becn_received, 0u) << algo;
    EXPECT_GT(r.non_hotspot_rcv_gbps, none.non_hotspot_rcv_gbps) << algo;
  }
}

TEST(CcAlgoSim, AlgorithmsActuallyDiffer) {
  // If dcqcn or aimd ever collapse into iba_a10 (e.g. a registry wiring
  // bug returning the default), their trajectories would be identical.
  SimConfig c = windy_config();
  c.cc_algo = "iba_a10";
  const SimResult a10 = run_sim(c);
  c.cc_algo = "dcqcn";
  const SimResult dc = run_sim(c);
  c.cc_algo = "aimd";
  const SimResult am = run_sim(c);
  EXPECT_NE(a10.delivered_bytes, dc.delivered_bytes);
  EXPECT_NE(a10.delivered_bytes, am.delivered_bytes);
  EXPECT_NE(dc.delivered_bytes, am.delivered_bytes);
}

TEST(CcAlgoSimDeath, UnknownAlgorithmAborts) {
  SimConfig c = silent_config();
  c.cc_algo = "bogus";
  EXPECT_DEATH((void)run_sim(c), "cc_algo");
}

}  // namespace
}  // namespace ibsim::sim
