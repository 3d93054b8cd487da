// Determinism regression for RoutingTables::compute: the LFT contents
// for a fat_tree3 and a mesh2d are pinned as hex-dump goldens captured
// from the original per-switch-vector implementation, so the flattened
// contiguous storage (and any future rewrite) cannot silently change a
// single forwarding decision. The dump goes through the public
// out_port() API and is therefore independent of the storage layout.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "topo/builders.hpp"
#include "topo/routing.hpp"

namespace ibsim::topo {
namespace {

/// One line of two-hex-digit ports per switch, destinations in NodeId
/// order, switches in Topology::switches() order.
std::string hex_dump(const Topology& topo, const RoutingTables& rt) {
  std::string out;
  out.reserve(topo.switches().size() *
              (static_cast<std::size_t>(topo.node_count()) * 2 + 1));
  char buf[8];
  for (const DeviceId sw : topo.switches()) {
    for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
      std::snprintf(buf, sizeof(buf), "%02x", rt.out_port(sw, dst) & 0xff);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

// Captured from the seed implementation (per-switch vector-of-vectors)
// at PR 4; fat_tree3 default params (4 pods x 2 leaves x 2 aggs,
// 4 cores, 4 nodes/leaf), d-mod-k tie-break.
constexpr const char* kFatTree3Golden =
    "0001020304050405040504050405040504050405040504050405040504050405\n"
    "0405040500010203040504050405040504050405040504050405040504050405\n"
    "0405040504050405000102030405040504050405040504050405040504050405\n"
    "0405040504050405040504050001020304050405040504050405040504050405\n"
    "0405040504050405040504050405040500010203040504050405040504050405\n"
    "0405040504050405040504050405040504050405000102030405040504050405\n"
    "0405040504050405040504050405040504050405040504050001020304050405\n"
    "0405040504050405040504050405040504050405040504050405040500010203\n"
    "0000000001010101020304050203040502030405020304050203040502030405\n"
    "0000000001010101020304050203040502030405020304050203040502030405\n"
    "0203040502030405000000000101010102030405020304050203040502030405\n"
    "0203040502030405000000000101010102030405020304050203040502030405\n"
    "0203040502030405020304050203040500000000010101010203040502030405\n"
    "0203040502030405020304050203040500000000010101010203040502030405\n"
    "0203040502030405020304050203040502030405020304050000000001010101\n"
    "0203040502030405020304050203040502030405020304050000000001010101\n"
    "0001000100010001020302030203020304050405040504050607060706070607\n"
    "0001000100010001020302030203020304050405040504050607060706070607\n"
    "0001000100010001020302030203020304050405040504050607060706070607\n"
    "0001000100010001020302030203020304050405040504050607060706070607\n";

// Same capture; mesh2d(3, 3, 2), first-port (dimension-order) tie-break.
constexpr const char* kMesh2dGolden =
    "000103030303050503030303050503030303\n"
    "020200010303020205050303020205050303\n"
    "020202020001020202020505020202020505\n"
    "040403030303000103030303050503030303\n"
    "020204040303020200010303020205050303\n"
    "020202020404020202020001020202020505\n"
    "040403030303040403030303000103030303\n"
    "020204040303020204040303020200010303\n"
    "020202020404020202020404020202020001\n";

TEST(RoutingGolden, FatTree3LftsPinnedAcrossStorageRewrites) {
  const Topology topo = fat_tree3(FatTree3Params{});
  const RoutingTables rt = RoutingTables::compute(topo, RoutingTables::TieBreak::DModK);
  EXPECT_EQ(hex_dump(topo, rt), kFatTree3Golden);
}

TEST(RoutingGolden, Mesh2dLftsPinnedAcrossStorageRewrites) {
  const Topology topo = mesh2d(3, 3, 2);
  const RoutingTables rt = RoutingTables::compute(topo, RoutingTables::TieBreak::FirstPort);
  EXPECT_EQ(hex_dump(topo, rt), kMesh2dGolden);
}

TEST(RoutingGolden, FlatStorageMatchesOutPortView) {
  const Topology topo = fat_tree3(FatTree3Params{});
  const RoutingTables rt = RoutingTables::compute(topo);
  ASSERT_EQ(rt.stride(), static_cast<std::size_t>(topo.node_count()));
  ASSERT_EQ(rt.switch_count(), topo.switches().size());
  ASSERT_EQ(rt.flat().size(), rt.stride() * rt.switch_count());
  for (std::size_t slot = 0; slot < topo.switches().size(); ++slot) {
    for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
      EXPECT_EQ(std::int32_t{rt.flat()[slot * rt.stride() + static_cast<std::size_t>(dst)]},
                rt.out_port(topo.switches()[slot], dst));
    }
  }
}

}  // namespace
}  // namespace ibsim::topo
