#include "sim/snapshot.hpp"

#include <utility>

#include "core/assert.hpp"

namespace ibsim::sim {

topo::RoutingTables::TieBreak tie_break_for(TopologyKind kind) {
  return kind == TopologyKind::Mesh2D ? topo::RoutingTables::TieBreak::FirstPort
                                      : topo::RoutingTables::TieBreak::DModK;
}

namespace {
topo::Topology build_topology(const SimConfig& config) {
  switch (config.topology) {
    case TopologyKind::SingleSwitch:
      return topo::single_switch(config.single_switch_nodes);
    case TopologyKind::FoldedClos:
      return topo::folded_clos(config.clos);
    case TopologyKind::FatTree3:
      return topo::fat_tree3(config.fat_tree3);
    case TopologyKind::LinearChain:
      return topo::linear_chain(config.chain_switches, config.chain_nodes_per_switch);
    case TopologyKind::Dumbbell:
      return topo::dumbbell(config.dumbbell_nodes_per_side);
    case TopologyKind::Mesh2D:
      return topo::mesh2d(config.mesh_rows, config.mesh_cols, config.mesh_nodes_per_switch);
  }
  IBSIM_ASSERT(false, "unknown topology kind");
  return topo::single_switch(2);
}
}  // namespace

std::shared_ptr<const TopologySnapshot> build_topology_snapshot(const SimConfig& config) {
  auto snap = std::make_shared<TopologySnapshot>();
  snap->topo = build_topology(config);
  return snap;
}

std::shared_ptr<const RoutingSnapshot> build_routing_snapshot(
    std::shared_ptr<const TopologySnapshot> topology,
    topo::RoutingTables::TieBreak tie_break) {
  auto snap = std::make_shared<RoutingSnapshot>();
  snap->tables = topo::RoutingTables::compute(topology->topo, tie_break);
  snap->topology = std::move(topology);
  return snap;
}

std::shared_ptr<const RoutingSnapshot> build_snapshot(const SimConfig& config) {
  return build_routing_snapshot(build_topology_snapshot(config), tie_break_for(config.topology));
}

}  // namespace ibsim::sim
