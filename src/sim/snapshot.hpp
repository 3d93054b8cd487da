#pragma once

#include <memory>

#include "sim/sim_config.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace ibsim::sim {

/// Immutable, shareable topology. Nothing in the simulator mutates a
/// Topology after construction, so any number of Simulations, on any
/// threads, may hold the same snapshot through a shared_ptr.
struct TopologySnapshot {
  topo::Topology topo;  ///< the cabling, identical for every holder
};

/// Immutable, shareable all-pairs routing: one flattened LFT set for one
/// (topology, tie-break) pair. Holds its topology snapshot so a
/// RoutingSnapshot alone keeps everything a Fabric borrows alive.
struct RoutingSnapshot {
  std::shared_ptr<const TopologySnapshot> topology;
  topo::RoutingTables tables;
};

/// The tie-break Simulation uses for a topology kind: meshes route
/// dimension-ordered (deadlock freedom), everything else spreads d-mod-k.
[[nodiscard]] topo::RoutingTables::TieBreak tie_break_for(TopologyKind kind);

/// Build the topology `config` describes. A caller running several
/// configs on one fabric builds it once, routes it once, and passes the
/// RoutingSnapshot to each Simulation(config, snapshot).
[[nodiscard]] std::shared_ptr<const TopologySnapshot> build_topology_snapshot(
    const SimConfig& config);
[[nodiscard]] std::shared_ptr<const RoutingSnapshot> build_routing_snapshot(
    std::shared_ptr<const TopologySnapshot> topology, topo::RoutingTables::TieBreak tie_break);

/// Both builds for `config`, with the tie-break Simulation uses.
[[nodiscard]] std::shared_ptr<const RoutingSnapshot> build_snapshot(const SimConfig& config);

}  // namespace ibsim::sim
