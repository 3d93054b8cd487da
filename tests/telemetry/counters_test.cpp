#include "telemetry/counters.hpp"

#include <gtest/gtest.h>

namespace ibsim::telemetry {
namespace {

TEST(CounterRegistry, ResolvesStableHandles) {
  CounterRegistry reg;
  const auto a = reg.counter("fabric.fecn_marked");
  const auto b = reg.gauge("fabric.queued_bytes");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.idx, b.idx);

  // Re-resolving the same name yields the same handle.
  const auto a2 = reg.counter("fabric.fecn_marked");
  EXPECT_EQ(a.idx, a2.idx);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(CounterRegistry, CounterAccumulatesGaugeOverwrites) {
  // The registry stores what the owner publishes: a counter's device
  // count grows between publishes, a gauge's sample may fall.
  CounterRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  reg.set(c, 1);
  reg.set(c, 42);
  reg.set(g, 100);
  reg.set(g, 7);
  EXPECT_EQ(reg.value(c), 42);
  EXPECT_EQ(reg.value(g), 7);
  EXPECT_EQ(reg.kind(static_cast<std::size_t>(c.idx)), CounterRegistry::Kind::Counter);
  EXPECT_EQ(reg.kind(static_cast<std::size_t>(g.idx)), CounterRegistry::Kind::Gauge);
}

TEST(CounterRegistry, InvalidHandleUpdatesAreNoOps) {
  CounterRegistry reg;
  const auto c = reg.counter("real");
  CounterRegistry::Handle invalid;
  EXPECT_FALSE(invalid.valid());
  reg.set(invalid, 99);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.value(c), 0);
}

TEST(CounterRegistry, SnapshotPreservesRegistrationOrder) {
  CounterRegistry reg;
  reg.set(reg.counter("zz.last_name_first"), 1);
  reg.set(reg.counter("aa.first_name_last"), 2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "zz.last_name_first");
  EXPECT_EQ(snap[0].second, 1);
  EXPECT_EQ(snap[1].first, "aa.first_name_last");
  EXPECT_EQ(snap[1].second, 2);
}

}  // namespace
}  // namespace ibsim::telemetry
