#include <gtest/gtest.h>

#include "fabric/events.hpp"
#include "fabric_fixture.hpp"
#include "topo/builders.hpp"

namespace ibsim::fabric::testing {
namespace {

/// Which lane a switch output serves next. Three nodes on one switch:
/// nodes 0 and 1 send to node 2. Packets are placed straight into the
/// switch's input buffers at t = 0 (their senders' credits spent as if
/// they had crossed the link), so a test fixes exactly what is queued
/// when the output towards node 2 next arbitrates: the first data packet
/// is granted at once and holds the output for one serialization, and
/// what arrives after it waits.
struct LaneRig {
  static constexpr ib::NodeId kSink = 2;

  explicit LaneRig(std::int32_t n_vls = 2)
      : fx(topo::single_switch(3), ib::CcParams::disabled(), params(n_vls)),
        sw(fx.fabric.switch_at(0)) {}

  static FabricParams params(std::int32_t n_vls) {
    FabricParams p;
    p.n_vls = n_vls;
    return p;
  }

  /// Switch port cabled to `node`.
  [[nodiscard]] std::int32_t port_of(ib::NodeId node) const {
    return fx.topo.peer(topo::PortRef{fx.topo.hca_device(node), 0}).port;
  }

  [[nodiscard]] ib::Vl cnp_vl() const { return fx.fabric.params().cnp_vl(); }

  /// One packet from `from` to node 2 reaches the switch at t = 0.
  void arrive(ib::NodeId from, bool cnp) {
    const ib::Vl vl = cnp ? cnp_vl() : ib::kDataVl;
    const std::int32_t bytes = cnp ? ib::kCnpBytes : ib::kMtuBytes;
    fx.fabric.hca(from).bank().credit(0, vl).consume(bytes);
    ib::PacketArena& arena = fx.fabric.arena();
    const ib::PacketHandle h = arena.allocate();
    ib::Packet& pkt = arena.get(h);
    pkt.src = from;
    pkt.dst = kSink;
    pkt.bytes = bytes;
    pkt.vl = vl;
    pkt.is_cnp = cnp;
    pkt.becn = cnp;
    fx.sched.schedule_at(0, &sw, kEvPacketArrive, h, static_cast<std::uint64_t>(port_of(from)));
  }

  /// The instant the first data packet frees the output.
  [[nodiscard]] core::Time first_free() const {
    return core::transmit_time(ib::kMtuBytes, fx.fabric.params().wire_gbps);
  }

  /// Bytes still queued at the switch from `from` on `vl`.
  [[nodiscard]] std::int64_t queued(ib::NodeId from, ib::Vl vl) const {
    return sw.input_vl_bytes(port_of(from), vl);
  }

  /// Run to the end and check both data packets arrived and every
  /// credit came home.
  void drain() {
    fx.sched.run();
    EXPECT_EQ(fx.observer.bytes_to(kSink), 2 * ib::kMtuBytes);
    for (const ib::Vl vl : {ib::kDataVl, cnp_vl()}) {
      EXPECT_EQ(sw.bank().credit(port_of(kSink), vl).outstanding(), 0) << int{vl};
      for (ib::NodeId n = 0; n < 2; ++n) {
        EXPECT_EQ(fx.fabric.hca(n).bank().credit(0, vl).outstanding(), 0) << int{vl};
      }
    }
  }

  FabricFixture fx;
  SwitchDevice& sw;
};

TEST(SwitchLanes, CnpLaneServedAheadOfQueuedData) {
  LaneRig rig;
  ASSERT_NE(rig.cnp_vl(), ib::kDataVl);
  rig.arrive(0, /*cnp=*/false);  // granted at once
  rig.arrive(0, /*cnp=*/false);  // queued behind it, first in
  rig.arrive(1, /*cnp=*/true);   // queued last
  rig.fx.sched.run_until(rig.first_free());
  EXPECT_EQ(rig.queued(1, rig.cnp_vl()), 0) << "the CNP goes first";
  EXPECT_EQ(rig.queued(0, ib::kDataVl), ib::kMtuBytes) << "the data packet waits";
  rig.drain();
}

TEST(SwitchLanes, DataLaneServedWhenCnpLaneEmpty) {
  LaneRig rig;
  rig.arrive(0, /*cnp=*/false);
  rig.arrive(0, /*cnp=*/false);
  rig.fx.sched.run_until(rig.first_free());
  EXPECT_EQ(rig.queued(0, ib::kDataVl), 0);
  rig.drain();
}

TEST(SwitchLanes, DataLaneServedWhenCnpLaneHasNoCredits) {
  LaneRig rig;
  // Node 2's CNP buffer is full: the switch holds no CNP-lane credits.
  CreditTracker& cnp_credits = rig.sw.bank().credit(rig.port_of(LaneRig::kSink), rig.cnp_vl());
  const auto held = static_cast<std::int32_t>(cnp_credits.available());
  cnp_credits.consume(held);
  rig.arrive(0, /*cnp=*/false);
  rig.arrive(0, /*cnp=*/false);
  rig.arrive(1, /*cnp=*/true);
  rig.fx.sched.run_until(rig.first_free());
  EXPECT_EQ(rig.queued(0, ib::kDataVl), 0) << "data passes the blocked CNP";
  EXPECT_EQ(rig.queued(1, rig.cnp_vl()), ib::kCnpBytes);

  // The buffer drains while the data packet is on the wire; the CNP
  // leaves at the next arbitration.
  rig.fx.sched.schedule_at(rig.first_free(), &rig.sw, kEvCreditUpdate,
                           pack_credit(rig.cnp_vl(), held),
                           static_cast<std::uint64_t>(rig.port_of(LaneRig::kSink)));
  rig.fx.sched.run_until(2 * rig.first_free());
  EXPECT_EQ(rig.queued(1, rig.cnp_vl()), 0);
  rig.drain();
}

TEST(SwitchLanes, SingleLaneCnpWaitsItsTurn) {
  // With n_vls = 1 a CNP shares VL0 and its input's FIFO: queued behind
  // a data packet from the same input, it leaves second.
  LaneRig rig(/*n_vls=*/1);
  ASSERT_EQ(rig.cnp_vl(), ib::kDataVl);
  rig.arrive(1, /*cnp=*/false);
  rig.arrive(1, /*cnp=*/false);
  rig.arrive(1, /*cnp=*/true);
  rig.fx.sched.run_until(rig.first_free());
  EXPECT_EQ(rig.queued(1, ib::kDataVl), ib::kCnpBytes);
  rig.drain();
}

}  // namespace
}  // namespace ibsim::fabric::testing
