// HCA-level behaviour: injection pacing, CNP priority, CC turnaround,
// the drain-latency histograms.

#include <gtest/gtest.h>

#include "fabric_fixture.hpp"
#include "ib/types.hpp"
#include "topo/builders.hpp"
#include "topo/partition.hpp"

namespace ibsim::fabric::testing {
namespace {

TEST(Hca, InjectionSpacingMatchesPacing) {
  // Two packets from an otherwise idle HCA are spaced by the 13.5 Gb/s
  // pacing interval, not the 16 Gb/s wire time.
  FabricFixture fx(topo::single_switch(3));
  fx.source(0).add_burst(1, ib::kMtuBytes, 2);
  fx.run();
  ASSERT_EQ(fx.observer.deliveries.size(), 2u);
  const core::Time gap =
      fx.observer.deliveries[1].injected_at - fx.observer.deliveries[0].injected_at;
  EXPECT_EQ(gap, core::transmit_time(ib::kMtuBytes, 13.5));
}

TEST(Hca, CnpJumpsTheDataQueue) {
  // Under CC, a FECN-marked delivery at node 0 queues a CNP there while
  // node 0 itself is busy streaming data: the CNP must still depart
  // promptly (priority + own VL), reflected in a BECN arriving at the
  // marked flow's source long before node 0's data backlog drains.
  FabricFixture fx(topo::single_switch(4), ib::CcParams::paper_table1());
  // Node 1 and 2 jam node 0 (endpoint congestion -> marks).
  fx.source(1).add_burst(0, ib::kMtuBytes, 400);
  fx.source(2).add_burst(0, ib::kMtuBytes, 400);
  // Node 0 streams a large burst elsewhere, so its send path is busy.
  fx.source(0).add_burst(3, ib::kMtuBytes, 400);
  fx.run();
  // The jamming sources received BECNs: their agents were throttled.
  const auto& agent1 = fx.fabric.hca(1).cc_agent();
  const auto& agent2 = fx.fabric.hca(2).cc_agent();
  EXPECT_GT(agent1.becn_received() + agent2.becn_received(), 0u);
  // And node 0's agent sent the CNPs.
  EXPECT_GT(fx.fabric.hca(0).cc_agent().cnps_sent(), 0u);
  EXPECT_EQ(fx.fabric.arena().live(), 0);
}

TEST(Hca, FecnDeliveredCounterTracksMarks) {
  FabricFixture fx(topo::single_switch(4), ib::CcParams::paper_table1());
  fx.source(1).add_burst(0, ib::kMtuBytes, 300);
  fx.source(2).add_burst(0, ib::kMtuBytes, 300);
  fx.run();
  std::uint64_t marked = 0;
  for (std::size_t i = 0; i < fx.fabric.switch_count(); ++i) {
    marked += fx.fabric.switch_at(i).fecn_marked();
  }
  EXPECT_EQ(fx.fabric.hca(0).fecn_delivered(), marked);
  // 1:1 FECN -> CNP turnaround at the destination.
  EXPECT_EQ(fx.fabric.hca(0).cc_agent().cnps_sent(), marked);
}

TEST(Hca, InjectedCountersMatchObserved) {
  FabricFixture fx(topo::single_switch(3));
  fx.source(0).add_burst(1, ib::kMtuBytes, 25);
  fx.source(2).add_burst(1, ib::kMtuBytes, 10);
  fx.run();
  EXPECT_EQ(fx.fabric.hca(0).injected_packets(), 25u);
  EXPECT_EQ(fx.fabric.hca(0).injected_bytes(), 25 * ib::kMtuBytes);
  EXPECT_EQ(fx.fabric.hca(2).injected_packets(), 10u);
  EXPECT_EQ(fx.fabric.hca(1).delivered_bytes(), 35 * ib::kMtuBytes);
}

TEST(Hca, CnpsNotCountedAsDeliveredData) {
  FabricFixture fx(topo::single_switch(4), ib::CcParams::paper_table1());
  fx.source(1).add_burst(0, ib::kMtuBytes, 200);
  fx.source(2).add_burst(0, ib::kMtuBytes, 200);
  fx.run();
  // The observer and the latency histogram saw only the 400 data
  // packets even though CNPs flowed back to the sources.
  EXPECT_EQ(fx.observer.deliveries.size(), 400u);
  EXPECT_EQ(fx.fabric.latency_us().total(), 400u);
  EXPECT_GT(fx.fabric.total_cnps_sent(), 0u);
  for (const Delivery& d : fx.observer.deliveries) {
    EXPECT_EQ(d.bytes, ib::kMtuBytes);
  }
}

TEST(Hca, SourceRetryHintsAreHonoured) {
  // A source that reports "nothing until t" is polled again at t (the
  // injection path schedules a retry event rather than spinning).
  class OneShotAtTime final : public TrafficSource {
   public:
    OneShotAtTime(ib::NodeId self, core::Time when, ib::PacketArena* arena)
        : self_(self), when_(when), arena_(arena) {}
    Poll poll(core::Time now) override {
      ++polls;
      if (now < when_) return {ib::kNullPacket, when_};
      if (sent_) return {ib::kNullPacket, core::kTimeNever};
      sent_ = true;
      const ib::PacketHandle h = arena_->allocate();
      ib::Packet& pkt = arena_->get(h);
      pkt.src = self_;
      pkt.dst = 1;
      pkt.bytes = ib::kMtuBytes;
      pkt.vl = ib::kDataVl;
      return {h, core::kTimeNever};
    }
    int polls = 0;

   private:
    ib::NodeId self_;
    core::Time when_;
    ib::PacketArena* arena_;
    bool sent_ = false;
  };

  FabricFixture fx(topo::single_switch(2));
  OneShotAtTime source(0, 500 * core::kMicrosecond, &fx.fabric.arena());
  fx.fabric.hca(0).attach_source(&source);
  fx.run();
  ASSERT_EQ(fx.observer.deliveries.size(), 1u);
  EXPECT_EQ(fx.observer.deliveries[0].injected_at, 500 * core::kMicrosecond);
  // Polled a bounded number of times (start, the retry, post-send),
  // not once per event in between.
  EXPECT_LE(source.polls, 4);
}

// --- The drain-latency histograms the run's latency metrics read ---------

TEST(Metrics, LatencyHistogramInMicroseconds) {
  // 100 us cables put one packet's injection-to-drain latency a little
  // past 200 us: the third 78.125 us bin.
  FabricParams params;
  params.link_delay = 100 * core::kMicrosecond;
  FabricFixture fx(topo::single_switch(2), ib::CcParams::disabled(), params);
  fx.source(0).add_burst(1, ib::kMtuBytes, 1);
  fx.run();
  ASSERT_EQ(fx.observer.deliveries.size(), 1u);
  const Delivery& d = fx.observer.deliveries[0];
  const double us = static_cast<double>(d.at - d.injected_at) / core::kMicrosecond;
  const core::Histogram latency = fx.fabric.latency_us();
  EXPECT_EQ(latency.total(), 1u);
  EXPECT_EQ(latency.bin_hi(0), 78.125);
  ASSERT_LE(latency.bin_lo(2), us);
  ASSERT_LT(us, latency.bin_hi(2));
  EXPECT_EQ(latency.bin_count(2), 1u);
}

TEST(Metrics, ResetWindowDiscardsHistory) {
  // A packet drained before the reset is forgotten; one drained after it
  // is counted.
  FabricFixture fx(topo::single_switch(2));
  ScriptedSource& source = fx.source(0);
  source.add_burst(1, ib::kMtuBytes, 1);
  fx.run();
  EXPECT_EQ(fx.fabric.latency_us().total(), 1u);
  fx.fabric.reset_latency();
  EXPECT_EQ(fx.fabric.latency_us().total(), 0u);
  source.add_burst(1, ib::kMtuBytes, 1);
  fx.fabric.hca(0).nudge(fx.sched);
  fx.sched.run();
  EXPECT_EQ(fx.observer.deliveries.size(), 2u);
  EXPECT_EQ(fx.fabric.latency_us().total(), 1u);
}

TEST(Hca, ResetLatencyEmptiesEveryShard) {
  // Two leaves on two shards, each carrying one flow between its own
  // end nodes, so each shard's scheduler runs on its own.
  const topo::Topology topo = topo::folded_clos(topo::FoldedClosParams::scaled(2, 1, 2));
  const topo::RoutingTables routing = topo::RoutingTables::compute(topo);
  const topo::ShardPlan plan = topo::make_shard_plan(topo, 2);
  ASSERT_EQ(plan.n_shards, 2);
  core::Scheduler scheds[2];
  Fabric::ShardLayout layout{&plan.shard_of_device, {&scheds[0], &scheds[1]}};
  const cc::CcManager ccm(ib::CcParams::disabled(), 128, 13.5);
  Fabric fabric(topo, routing, FabricParams{}, ccm, layout);
  ASSERT_NE(fabric.shard_of(topo.hca_device(0)), fabric.shard_of(topo.hca_device(2)));
  ScriptedSource left(0, &fabric.arena_for_node(0));
  ScriptedSource right(2, &fabric.arena_for_node(2));
  left.add_burst(1, ib::kMtuBytes, 3);
  right.add_burst(3, ib::kMtuBytes, 5);
  fabric.hca(0).attach_source(&left);
  fabric.hca(2).attach_source(&right);
  fabric.start(scheds[0]);
  for (core::Scheduler& sched : scheds) sched.run_until(core::kTimeNever);
  EXPECT_EQ(fabric.latency_us().total(), 8u);
  fabric.reset_latency();
  EXPECT_EQ(fabric.latency_us().total(), 0u);
}

}  // namespace
}  // namespace ibsim::fabric::testing
