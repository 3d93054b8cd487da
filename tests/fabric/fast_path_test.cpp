// Unit tests for the fabric event fast path at the single-device level:
// the lazy-wakeup elision (no kEvLinkFree for a switch output whose
// queues drained), eager wakeups while work is queued, an HCA that
// schedules every wakeup, and one credit event per refund even when
// refunds meet at one instant. The full-simulation bit-identity
// guarantee lives in tests/integration/fast_path_equivalence_test.cpp;
// here we pin the exact per-kind event counts on hand-built scenarios.

#include <gtest/gtest.h>

#include "fabric/events.hpp"
#include "fabric_fixture.hpp"
#include "ib/types.hpp"
#include "topo/builders.hpp"

namespace ibsim::fabric::testing {
namespace {

struct RunStats {
  std::vector<Delivery> deliveries;
  std::array<std::uint64_t, core::Scheduler::kKindSlots> by_kind{};
  std::uint64_t executed = 0;
};

void expect_same_deliveries(const RunStats& fast, const RunStats& slow) {
  ASSERT_EQ(fast.deliveries.size(), slow.deliveries.size());
  for (std::size_t i = 0; i < fast.deliveries.size(); ++i) {
    const Delivery& f = fast.deliveries[i];
    const Delivery& s = slow.deliveries[i];
    EXPECT_EQ(f.node, s.node) << "delivery " << i;
    EXPECT_EQ(f.src, s.src) << "delivery " << i;
    EXPECT_EQ(f.bytes, s.bytes) << "delivery " << i;
    EXPECT_EQ(f.injected_at, s.injected_at) << "delivery " << i;
    EXPECT_EQ(f.at, s.at) << "delivery " << i;
  }
}

// One packet across one switch. The switch output drains with the grant,
// so the fast path must not schedule its kEvLinkFree at all; the source
// HCA keeps its eager wakeup (an attached source must be re-polled).
TEST(FastPath, DrainedOutputSchedulesNoWakeup) {
  RunStats stats[2];
  for (const bool fast : {true, false}) {
    FabricParams params;
    params.fast_path = fast;
    FabricFixture fx(topo::single_switch(4), ib::CcParams::disabled(), params);
    fx.source(0).add_burst(3, ib::kMtuBytes, 1);
    fx.run();
    RunStats& st = stats[fast ? 0 : 1];
    st.deliveries = fx.observer.deliveries;
    st.by_kind = fx.sched.executed_by_kind();
    st.executed = fx.sched.executed();
  }
  const RunStats& fast = stats[0];
  const RunStats& slow = stats[1];
  expect_same_deliveries(fast, slow);

  // Slow path: one wakeup per grant (source HCA + switch). Fast path:
  // only the HCA's survives; the drained switch output's is elided.
  EXPECT_EQ(slow.by_kind[kEvLinkFree], 2u);
  EXPECT_EQ(fast.by_kind[kEvLinkFree], 1u);
  // Real work is identical: arrivals at the switch and the sink HCA,
  // one sink drain, credit returns from both hops.
  EXPECT_EQ(fast.by_kind[kEvPacketArrive], slow.by_kind[kEvPacketArrive]);
  EXPECT_EQ(fast.by_kind[kEvSinkFree], slow.by_kind[kEvSinkFree]);
  EXPECT_EQ(fast.by_kind[kEvCreditUpdate], slow.by_kind[kEvCreditUpdate]);
  EXPECT_EQ(fast.executed + 1, slow.executed);
}

// A pure receiver answering with a CNP has nothing else to inject, yet
// its grant schedules a kEvLinkFree on both paths: only switch outputs
// elide wakeups. The switch output toward HCA 0 drains with its grant,
// so the fast path elides that one alone.
TEST(FastPath, SourcelessHcaSchedulesItsWakeup) {
  RunStats stats[2];
  for (const bool fast : {true, false}) {
    FabricParams params;
    params.fast_path = fast;
    FabricFixture fx(topo::single_switch(4), ib::CcParams::disabled(), params);
    fx.fabric.start(fx.sched);
    fx.fabric.hca(1).send_cnp(/*to=*/0, /*flow_dst=*/1);  // HCA 1 has no source
    fx.sched.run_until(core::kTimeNever);
    RunStats& st = stats[fast ? 0 : 1];
    st.by_kind = fx.sched.executed_by_kind();
    st.executed = fx.sched.executed();
  }
  const RunStats& fast = stats[0];
  const RunStats& slow = stats[1];
  // Both paths: the CNP arrives at the switch and at HCA 0, HCA 0's
  // sink drains it once, and each hop returns its credits.
  for (const RunStats* st : {&fast, &slow}) {
    EXPECT_EQ(st->by_kind[kEvPacketArrive], 2u);
    EXPECT_EQ(st->by_kind[kEvSinkFree], 1u);
    EXPECT_EQ(st->by_kind[kEvCreditUpdate], 2u);
  }
  // HCA 1's wakeup runs on both paths; the switch's runs on the slow
  // path only.
  EXPECT_EQ(fast.by_kind[kEvLinkFree], 1u);
  EXPECT_EQ(slow.by_kind[kEvLinkFree], 2u);
  EXPECT_EQ(fast.executed, 6u);
  EXPECT_EQ(slow.executed, 7u);
}

// Fan-in backlog: two sources feed one output faster than the wire
// drains it, so the output's VoQ is non-empty at (almost) every grant
// and the fast path must keep scheduling real wakeups — laziness only
// elides provably dead events, it never parks a backlogged port.
TEST(FastPath, BackloggedOutputKeepsEagerWakeups) {
  RunStats stats[2];
  for (const bool fast : {true, false}) {
    FabricParams params;
    params.fast_path = fast;
    FabricFixture fx(topo::single_switch(4), ib::CcParams::disabled(), params);
    fx.source(0).add_burst(3, ib::kMtuBytes, 6);
    fx.source(1).add_burst(3, ib::kMtuBytes, 6);
    fx.run();
    RunStats& st = stats[fast ? 0 : 1];
    st.deliveries = fx.observer.deliveries;
    st.by_kind = fx.sched.executed_by_kind();
    st.executed = fx.sched.executed();
  }
  const RunStats& fast = stats[0];
  const RunStats& slow = stats[1];
  expect_same_deliveries(fast, slow);
  ASSERT_EQ(fast.deliveries.size(), 12u);

  // The backlogged switch output still takes real wakeups on the fast
  // path (strictly more than zero), but the tail grants that drain the
  // VoQ are elided, so the total stays below the slow path's
  // one-per-grant count.
  EXPECT_GT(fast.by_kind[kEvLinkFree], 0u);
  EXPECT_LT(fast.by_kind[kEvLinkFree], slow.by_kind[kEvLinkFree]);
  EXPECT_EQ(fast.by_kind[kEvPacketArrive], slow.by_kind[kEvPacketArrive]);
  EXPECT_EQ(fast.by_kind[kEvSinkFree], slow.by_kind[kEvSinkFree]);
  EXPECT_LT(fast.executed, slow.executed);
}

// Engineered same-instant credit returns: two primer packets of equal
// size seize outputs 2 and 3 at the same arrival instant, while the
// probe source's two equal-size packets wait behind them in input 0's
// VoQs. Both outputs free at the same tick, both grants dequeue from
// input 0, and both credit returns target (HCA 0, VL 0) at the same
// future time. The trailing filler burst keeps HCA 0's injector busy
// past the refund instant, so nothing at that instant could tell one
// merged refund from two; each refund is still its own kEvCreditUpdate
// on both paths.
TEST(FastPath, SameInstantCreditReturnsKeepOneEventEach) {
  RunStats stats[2];
  for (const bool fast : {true, false}) {
    FabricParams params;
    params.fast_path = fast;
    FabricFixture fx(topo::single_switch(6), ib::CcParams::disabled(), params);
    ScriptedSource& probe = fx.source(0);
    probe.add_burst(1, 256, 1);  // decoy: occupies the injector so the
                                 // probes arrive after the primers grant
    probe.add_burst(2, 256, 1);
    probe.add_burst(3, 256, 1);
    probe.add_burst(2, ib::kMtuBytes, 1);  // filler: keeps HCA 0 injecting
                                           // through the probes' credit-return
                                           // instant; parked behind busy output
                                           // 2 so its own credit return is
                                           // scheduled only after the probes'
    fx.source(4).add_burst(2, ib::kMtuBytes, 1);  // primer for output 2
    fx.source(5).add_burst(3, ib::kMtuBytes, 1);  // primer for output 3
    fx.run();
    RunStats& st = stats[fast ? 0 : 1];
    st.deliveries = fx.observer.deliveries;
    st.by_kind = fx.sched.executed_by_kind();
    st.executed = fx.sched.executed();
  }
  const RunStats& fast = stats[0];
  const RunStats& slow = stats[1];
  expect_same_deliveries(fast, slow);
  ASSERT_EQ(fast.deliveries.size(), 6u);

  // One credit event per switch dequeue (6) plus one per sink drain
  // (6), on both paths, although the two probe refunds reach HCA 0 at
  // the same instant.
  EXPECT_EQ(slow.by_kind[kEvCreditUpdate], 12u);
  EXPECT_EQ(fast.by_kind[kEvCreditUpdate], 12u);
  EXPECT_EQ(fast.by_kind[kEvPacketArrive], slow.by_kind[kEvPacketArrive]);
  EXPECT_EQ(fast.by_kind[kEvSinkFree], slow.by_kind[kEvSinkFree]);
}

}  // namespace
}  // namespace ibsim::fabric::testing
