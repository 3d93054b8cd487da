#include "store/serialize.hpp"

#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../sim/expect_identical.hpp"

namespace ibsim::store {
namespace {

sim::SimConfig small_base() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 8;
  config.sim_time = 300 * core::kMicrosecond;
  config.warmup = 50 * core::kMicrosecond;
  config.scenario.n_hotspots = 1;
  return config;
}

void round_trip(const sim::SimConfig& config) {
  const sim::SimResult fresh = sim::run_sim(config);
  const std::string text = serialize_result(fresh);
  sim::SimResult parsed;
  ASSERT_TRUE(parse_result(text, &parsed));
  sim::expect_identical(fresh, parsed, "store round trip of " + config.describe());
  // And the serialized form itself is a fixed point.
  EXPECT_EQ(serialize_result(parsed), text);
}

// The paper's congestion-tree taxonomy, one round-trip per family:
// silent (victims + dedicated contributors), windy (B nodes mixing
// hotspot and uniform traffic), moving (finite hotspot lifetimes).

TEST(Serialize, RoundTripSilentForest) {
  sim::SimConfig config = small_base();
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  round_trip(config);
}

TEST(Serialize, RoundTripWindyForest) {
  sim::SimConfig config = small_base();
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  round_trip(config);
}

TEST(Serialize, RoundTripMovingForest) {
  sim::SimConfig config = small_base();
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.hotspot_lifetime = 80 * core::kMicrosecond;
  round_trip(config);
}

TEST(Serialize, RoundTripWorkloadAndCounters) {
  sim::SimConfig config = small_base();
  config.workload.name = "incast";
  config.workload.ranks = 4;
  config.workload.message_bytes = 16 * 1024;
  config.sim_time = 2 * core::kMillisecond;
  config.telemetry.counters = true;  // fills SimResult::counters
  round_trip(config);
}

TEST(Serialize, MalformedInputRejected) {
  sim::SimResult result;
  EXPECT_FALSE(parse_result("", &result));
  EXPECT_FALSE(parse_result("not a record\n", &result));
  EXPECT_FALSE(parse_result("ibsim-result-v999\n", &result));

  const std::string good = serialize_result(sim::run_sim(small_base()));
  ASSERT_TRUE(parse_result(good, &result));
  // Truncations anywhere in the record read as a miss, never a crash
  // or a partial result.
  EXPECT_FALSE(parse_result(good.substr(0, good.size() / 2), &result));
  EXPECT_FALSE(parse_result(good.substr(0, good.size() - 4), &result));
}

TEST(Serialize, HugeListCountsRejected) {
  // A list count is read from the file; one no record could hold must
  // read as malformed rather than size an allocation (reserving these
  // throws length_error and bad_alloc).
  const std::string good = serialize_result(sim::run_sim(small_base()));
  for (const char* list : {"rank_finish", "phase_finish"}) {
    const std::string empty = std::string("\n") + list + " 0\n";
    const std::size_t at = good.find(empty);
    ASSERT_NE(at, std::string::npos) << list;
    for (const char* count : {"18446744073709551615", "100000000000"}) {
      std::string bad = good;
      bad.replace(at, empty.size(), std::string("\n") + list + ' ' + count + '\n');
      sim::SimResult result;
      EXPECT_FALSE(parse_result(bad, &result)) << list << ' ' << count;
    }
  }
}

}  // namespace
}  // namespace ibsim::store
