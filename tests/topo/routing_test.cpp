#include "topo/routing.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <set>

#include "core/assert.hpp"
#include "topo/builders.hpp"

namespace ibsim::topo {
namespace {

// --- reference: the per-destination BFS ------------------------------------
//
// RoutingTables::compute used to run one BFS per destination node. It now
// runs one per leaf and shares the result among the leaf's nodes. The
// original algorithm is kept here verbatim as the oracle: the two must
// produce equal tables, entry by entry, on every builder.

/// Flat adjacency of the cabled ports: for device `dev`, the entries
/// [first[dev], first[dev+1]) list its connected ports in port order.
struct Adjacency {
  struct Edge {
    std::int32_t port;
    DeviceId peer;
  };
  std::vector<std::int32_t> first;  // device -> index into edges (n_dev + 1 entries)
  std::vector<Edge> edges;

  explicit Adjacency(const Topology& topo) {
    const std::int32_t n_dev = topo.device_count();
    first.reserve(static_cast<std::size_t>(n_dev) + 1);
    for (DeviceId dev = 0; dev < n_dev; ++dev) {
      first.push_back(static_cast<std::int32_t>(edges.size()));
      for (std::int32_t p = 0; p < topo.port_count(dev); ++p) {
        const PortRef peer = topo.peer(PortRef{dev, p});
        if (peer.valid()) edges.push_back({p, peer.device});
      }
    }
    first.push_back(static_cast<std::int32_t>(edges.size()));
  }
};

/// The flat LFT (switch rows in Topology::switches() order, `node_count`
/// entries each) the per-destination BFS computes.
std::vector<std::int32_t> reference_lfts(const Topology& topo, RoutingTables::TieBreak tie_break) {
  const std::int32_t n_dev = topo.device_count();
  const std::int32_t n_nodes = topo.node_count();
  const std::size_t n_switches = topo.switches().size();
  const auto stride = static_cast<std::size_t>(n_nodes);
  std::vector<std::int32_t> lft(n_switches * stride, -1);

  const Adjacency adj(topo);
  constexpr std::int32_t kUnreached = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n_dev));
  std::deque<DeviceId> queue;
  std::vector<std::int32_t> candidates;  // reused across (dst, switch) pairs

  for (ib::NodeId dst = 0; dst < n_nodes; ++dst) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    const DeviceId dst_dev = topo.hca_device(dst);
    dist[static_cast<std::size_t>(dst_dev)] = 0;
    queue.push_back(dst_dev);
    while (!queue.empty()) {
      const DeviceId dev = queue.front();
      queue.pop_front();
      const std::int32_t d = dist[static_cast<std::size_t>(dev)];
      for (std::int32_t e = adj.first[static_cast<std::size_t>(dev)];
           e < adj.first[static_cast<std::size_t>(dev) + 1]; ++e) {
        auto& pd = dist[static_cast<std::size_t>(adj.edges[static_cast<std::size_t>(e)].peer)];
        if (pd == kUnreached) {
          pd = d + 1;
          queue.push_back(adj.edges[static_cast<std::size_t>(e)].peer);
        }
      }
    }

    for (std::size_t slot = 0; slot < n_switches; ++slot) {
      const DeviceId sw = topo.switches()[slot];
      const std::int32_t d = dist[static_cast<std::size_t>(sw)];
      if (d == kUnreached) continue;  // disconnected: leave -1
      // Candidate ports, in port order, whose peer is one hop closer.
      candidates.clear();
      for (std::int32_t e = adj.first[static_cast<std::size_t>(sw)];
           e < adj.first[static_cast<std::size_t>(sw) + 1]; ++e) {
        const Adjacency::Edge& edge = adj.edges[static_cast<std::size_t>(e)];
        if (dist[static_cast<std::size_t>(edge.peer)] == d - 1) candidates.push_back(edge.port);
      }
      IBSIM_ASSERT(!candidates.empty(), "BFS-reachable switch must have a next hop");
      const std::size_t pick =
          tie_break == RoutingTables::TieBreak::DModK
              ? static_cast<std::size_t>(dst) % candidates.size()  // d-mod-k spreading
              : 0;                                                 // lowest port (DOR)
      lft[slot * stride + static_cast<std::size_t>(dst)] = candidates[pick];
    }
  }
  return lft;
}

void expect_matches_reference(const Topology& topo, RoutingTables::TieBreak tie_break) {
  const RoutingTables rt = RoutingTables::compute(topo, tie_break);
  const std::vector<std::int32_t> want = reference_lfts(topo, tie_break);
  ASSERT_EQ(rt.stride(), static_cast<std::size_t>(topo.node_count()));
  // Every entry, not just the paths taken: the whole table is compared,
  // each 1-byte entry widened to the reference's int32.
  const std::vector<std::int32_t> got(rt.flat().begin(), rt.flat().end());
  EXPECT_EQ(got, want);
}

TEST(RoutingReference, SingleSwitch) {
  expect_matches_reference(single_switch(7), RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, FoldedClosSmall) {
  expect_matches_reference(folded_clos(FoldedClosParams::scaled(4, 2, 3)),
                           RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, FoldedClosSunDcs648) {
  expect_matches_reference(folded_clos(FoldedClosParams::sun_dcs_648()),
                           RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, FatTree3Default) {
  expect_matches_reference(fat_tree3(FatTree3Params{}), RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, FatTree3Scale2k) {
  expect_matches_reference(fat_tree3(FatTree3Params::scale_2k()),
                           RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, LinearChain) {
  expect_matches_reference(linear_chain(5, 2), RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, Dumbbell) {
  expect_matches_reference(dumbbell(3), RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, Mesh2dFirstPort) {
  expect_matches_reference(mesh2d(4, 5, 2), RoutingTables::TieBreak::FirstPort);
}

TEST(RoutingReference, Mesh2dDModK) {
  expect_matches_reference(mesh2d(3, 4, 3), RoutingTables::TieBreak::DModK);
}

TEST(RoutingReference, ParallelLinksAndAnUnreachableIsland) {
  // Two switches joined by two parallel cables (two equal next hops),
  // plus a switch with its own HCA and no uplink (entries stay -1).
  Topology topo;
  const DeviceId sw0 = topo.add_switch(4);
  const DeviceId sw1 = topo.add_switch(4);
  const DeviceId island = topo.add_switch(2);
  topo.connect({sw0, 2}, {sw1, 2});
  topo.connect({sw0, 3}, {sw1, 3});
  topo.connect({topo.add_hca(), 0}, {sw0, 0});
  topo.connect({topo.add_hca(), 0}, {sw1, 0});
  topo.connect({topo.add_hca(), 0}, {sw0, 1});
  topo.connect({topo.add_hca(), 0}, {island, 1});
  topo.connect({topo.add_hca(), 0}, {sw1, 1});
  expect_matches_reference(topo, RoutingTables::TieBreak::DModK);
  expect_matches_reference(topo, RoutingTables::TieBreak::FirstPort);
  const RoutingTables rt = RoutingTables::compute(topo);
  EXPECT_EQ(rt.out_port(island, 0), -1);
  EXPECT_EQ(rt.out_port(island, 3), 1);
  EXPECT_NE(rt.out_port(sw0, 1), rt.out_port(sw0, 4));  // d-mod-k over the pair
}

TEST(RoutingDeathTest, EveryHcaNeedsItsCable) {
  Topology topo;
  const DeviceId sw = topo.add_switch(2);
  topo.connect({topo.add_hca(), 0}, {sw, 0});
  (void)topo.add_hca();  // never cabled
  EXPECT_DEATH((void)RoutingTables::compute(topo), "exactly one cabled port");
}

TEST(RoutingDeathTest, SwitchWiderThanAnLftEntry) {
  // An LFT entry is one byte; sim::check_config rejects such a topology
  // before it gets here.
  Topology topo;
  const DeviceId sw = topo.add_switch(kMaxSwitchPorts + 1);
  topo.connect({topo.add_hca(), 0}, {sw, 0});
  topo.connect({topo.add_hca(), 0}, {sw, kMaxSwitchPorts});
  EXPECT_DEATH((void)RoutingTables::compute(topo), "wider than kMaxSwitchPorts");
}

// --- behaviour --------------------------------------------------------------

TEST(Routing, SingleSwitchDirect) {
  const Topology topo = single_switch(4);
  const RoutingTables rt = RoutingTables::compute(topo);
  const DeviceId sw = topo.switches()[0];
  for (ib::NodeId dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(rt.out_port(sw, dst), dst);  // port i hosts node i
  }
}

TEST(Routing, TraceSelfIsTrivial) {
  const Topology topo = single_switch(4);
  const RoutingTables rt = RoutingTables::compute(topo);
  const auto path = rt.trace(topo, 2, 2);
  EXPECT_EQ(path.size(), 1u);
}

TEST(Routing, SingleSwitchTwoHops) {
  const Topology topo = single_switch(4);
  const RoutingTables rt = RoutingTables::compute(topo);
  EXPECT_EQ(rt.hops(topo, 0, 3), 2);  // HCA -> switch -> HCA
}

TEST(Routing, FoldedClosAllPairsReachableWithCorrectHops) {
  const FoldedClosParams params = FoldedClosParams::scaled(4, 2, 3);
  const Topology topo = folded_clos(params);
  const RoutingTables rt = RoutingTables::compute(topo);
  for (ib::NodeId src = 0; src < topo.node_count(); ++src) {
    for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
      if (src == dst) continue;
      const bool same_leaf = src / params.nodes_per_leaf == dst / params.nodes_per_leaf;
      EXPECT_EQ(rt.hops(topo, src, dst), same_leaf ? 2 : 4)
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(Routing, DModKSpreadsAcrossSpines) {
  const FoldedClosParams params = FoldedClosParams::scaled(4, 2, 3);
  const Topology topo = folded_clos(params);
  const RoutingTables rt = RoutingTables::compute(topo);
  const DeviceId leaf0 = topo.switches()[0];
  // Destinations on other leaves must use up-ports spread by dst % spines.
  std::set<std::int32_t> up_ports_used;
  for (ib::NodeId dst = params.nodes_per_leaf; dst < topo.node_count(); ++dst) {
    const std::int32_t port = rt.out_port(leaf0, dst);
    EXPECT_GE(port, params.nodes_per_leaf);  // an up port
    up_ports_used.insert(port);
    EXPECT_EQ(port, params.nodes_per_leaf + dst % params.spines);
  }
  EXPECT_EQ(up_ports_used.size(), static_cast<std::size_t>(params.spines));
}

TEST(Routing, DownPathIsDirect) {
  const FoldedClosParams params = FoldedClosParams::scaled(4, 2, 3);
  const Topology topo = folded_clos(params);
  const RoutingTables rt = RoutingTables::compute(topo);
  // From a spine, the route to any node goes to its leaf.
  const DeviceId spine0 = topo.switches()[4];
  for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
    EXPECT_EQ(rt.out_port(spine0, dst), dst / params.nodes_per_leaf);
  }
}

TEST(Routing, LocalTrafficStaysOnLeaf) {
  const FoldedClosParams params = FoldedClosParams::scaled(4, 2, 3);
  const Topology topo = folded_clos(params);
  const RoutingTables rt = RoutingTables::compute(topo);
  // Same-leaf destinations go straight down, never to a spine.
  const DeviceId leaf0 = topo.switches()[0];
  for (ib::NodeId dst = 0; dst < params.nodes_per_leaf; ++dst) {
    EXPECT_EQ(rt.out_port(leaf0, dst), dst);
  }
}

TEST(Routing, ChainRoutesAlongTheLine) {
  const Topology topo = linear_chain(4, 1);
  const RoutingTables rt = RoutingTables::compute(topo);
  EXPECT_EQ(rt.hops(topo, 0, 3), 5);  // hca->sw0->sw1->sw2->sw3->hca
  EXPECT_EQ(rt.hops(topo, 3, 0), 5);
  EXPECT_EQ(rt.hops(topo, 1, 2), 3);
}

TEST(Routing, DumbbellCrossesBottleneck) {
  const Topology topo = dumbbell(3);
  const RoutingTables rt = RoutingTables::compute(topo);
  EXPECT_EQ(rt.hops(topo, 0, 1), 2);  // same side
  EXPECT_EQ(rt.hops(topo, 0, 3), 3);  // across the bridge
}

TEST(Routing, PathsFollowPhysicalLinks) {
  const Topology topo = folded_clos(FoldedClosParams::scaled(3, 2, 2));
  const RoutingTables rt = RoutingTables::compute(topo);
  for (ib::NodeId src = 0; src < topo.node_count(); ++src) {
    for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
      if (src == dst) continue;
      const auto path = rt.trace(topo, src, dst);  // trace asserts link validity
      EXPECT_EQ(path.front(), topo.hca_device(src));
      EXPECT_EQ(path.back(), topo.hca_device(dst));
    }
  }
}

TEST(Routing, FullScaleComputeIsFeasible) {
  const Topology topo = folded_clos(FoldedClosParams::sun_dcs_648());
  const RoutingTables rt = RoutingTables::compute(topo);
  EXPECT_EQ(rt.hops(topo, 0, 1), 2);    // same leaf
  EXPECT_EQ(rt.hops(topo, 0, 647), 4);  // across spines
}

}  // namespace
}  // namespace ibsim::topo
