// Unit tests for the switch's lazy link wakeups at the single-device
// level: no kEvLinkFree for a switch output whose queues drained, eager
// wakeups while work is queued, an HCA that schedules every wakeup, and
// one credit event per refund even when refunds meet at one instant.
// Each case pins the exact per-kind event counts of a hand-built
// scenario; tests/integration/event_census_test.cpp pins them on whole
// simulations.

#include <gtest/gtest.h>

#include <array>

#include "fabric_fixture.hpp"
#include "ib/types.hpp"
#include "topo/builders.hpp"

namespace ibsim::fabric::testing {
namespace {

/// Executed events per kind: {unused, packet_arrive, link_free,
/// credit_update, sink_free, retry_inject, other}.
using Kinds = std::array<std::uint64_t, core::Scheduler::kKindSlots>;

// One packet across one switch. The switch output drains with the grant,
// so its kEvLinkFree is never scheduled; the source HCA keeps its eager
// wakeup (an attached source must be re-polled). The packet arrives at
// the switch and at the sink HCA, drains once, and each hop returns its
// credits.
TEST(LazyWakeup, DrainedOutputSchedulesNoWakeup) {
  FabricFixture fx(topo::single_switch(4));
  fx.source(0).add_burst(3, ib::kMtuBytes, 1);
  fx.run();
  ASSERT_EQ(fx.observer.deliveries.size(), 1u);
  EXPECT_EQ(fx.sched.executed_by_kind(), (Kinds{0, 2, 1, 2, 1, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 6u);
}

// A pure receiver answering with a CNP has nothing else to inject, yet
// its grant schedules a kEvLinkFree: only switch outputs elide wakeups.
// The switch output toward HCA 0 drains with its grant, so its wakeup
// is the one elided.
TEST(LazyWakeup, SourcelessHcaSchedulesItsWakeup) {
  FabricFixture fx(topo::single_switch(4));
  fx.fabric.start(fx.sched);
  fx.fabric.hca(1).send_cnp(/*to=*/0, /*flow_dst=*/1);  // HCA 1 has no source
  fx.sched.run_until(core::kTimeNever);
  // The CNP arrives at the switch and at HCA 0, HCA 0's sink drains it
  // once, each hop returns its credits, and HCA 1's wakeup runs.
  EXPECT_EQ(fx.sched.executed_by_kind(), (Kinds{0, 2, 1, 2, 1, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 6u);
}

// Fan-in backlog: two sources feed one output faster than the wire
// drains it, so the output's VoQ is non-empty at (almost) every grant
// and the switch keeps scheduling real wakeups — laziness only elides
// provably dead events, it never parks a backlogged port. Of the 24
// grants' wakeups (12 at the HCAs, 12 at the switch) one is elided.
TEST(LazyWakeup, BackloggedOutputKeepsEagerWakeups) {
  FabricFixture fx(topo::single_switch(4));
  fx.source(0).add_burst(3, ib::kMtuBytes, 6);
  fx.source(1).add_burst(3, ib::kMtuBytes, 6);
  fx.run();
  ASSERT_EQ(fx.observer.deliveries.size(), 12u);
  EXPECT_EQ(fx.sched.executed_by_kind(), (Kinds{0, 24, 23, 24, 12, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 83u);
}

// Engineered same-instant credit returns: two primer packets of equal
// size seize outputs 2 and 3 at the same arrival instant, while the
// probe source's two equal-size packets wait behind them in input 0's
// VoQs. Both outputs free at the same tick, both grants dequeue from
// input 0, and both credit returns target (HCA 0, VL 0) at the same
// future time. The trailing filler burst keeps HCA 0's injector busy
// past the refund instant, so nothing at that instant could tell one
// merged refund from two; each refund is still its own kEvCreditUpdate:
// one per switch dequeue (6) plus one per sink drain (6).
TEST(LazyWakeup, SameInstantCreditReturnsKeepOneEventEach) {
  FabricFixture fx(topo::single_switch(6));
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
  ASSERT_EQ(fx.observer.deliveries.size(), 6u);
  EXPECT_EQ(fx.sched.executed_by_kind(), (Kinds{0, 12, 9, 12, 6, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 39u);
}

}  // namespace
}  // namespace ibsim::fabric::testing
