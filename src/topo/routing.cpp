#include "topo/routing.hpp"

#include <algorithm>
#include <limits>

#include "core/assert.hpp"

namespace ibsim::topo {

namespace {

/// Flat adjacency of the switch-to-switch cables: for device `dev`, the
/// entries [first[dev], first[dev+1]) list its ports cabled to another
/// switch, in port order. Built once per compute() so neither the BFS
/// nor the candidate scan re-walks the port space through
/// Topology::peer. Ports to HCAs are left out: a one-port device is
/// never on a shortest path between two others, so it is never a
/// switch's next hop except towards itself (the leaf's last hop, which
/// compute() takes from Attachments).
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
      if (topo.kind(dev) != DeviceKind::Switch) continue;
      for (std::int32_t p = 0; p < topo.port_count(dev); ++p) {
        const PortRef peer = topo.peer(PortRef{dev, p});
        if (peer.valid() && topo.kind(peer.device) == DeviceKind::Switch) {
          edges.push_back({p, peer.device});
        }
      }
    }
    first.push_back(static_cast<std::int32_t>(edges.size()));
  }
};

/// End nodes grouped by the device their one cable lands on (the
/// "leaf"): the nodes of leaf `dev` are nodes[first[dev], first[dev+1]),
/// in NodeId order, and leaf_port[node] is the leaf's port towards it.
struct Attachments {
  std::vector<std::int32_t> first;  // device -> index into nodes (n_dev + 1 entries)
  std::vector<ib::NodeId> nodes;
  std::vector<std::int32_t> leaf_port;

  explicit Attachments(const Topology& topo) {
    const std::int32_t n_dev = topo.device_count();
    const std::int32_t n_nodes = topo.node_count();
    std::vector<DeviceId> leaf(static_cast<std::size_t>(n_nodes));
    leaf_port.resize(static_cast<std::size_t>(n_nodes));
    first.assign(static_cast<std::size_t>(n_dev) + 1, 0);
    for (ib::NodeId node = 0; node < n_nodes; ++node) {
      const DeviceId hca = topo.hca_device(node);
      const PortRef peer = topo.peer(PortRef{hca, 0});
      IBSIM_ASSERT(topo.port_count(hca) == 1 && peer.valid(),
                   "every HCA must have exactly one cabled port");
      leaf[static_cast<std::size_t>(node)] = peer.device;
      leaf_port[static_cast<std::size_t>(node)] = peer.port;
      ++first[static_cast<std::size_t>(peer.device) + 1];
    }
    for (std::size_t dev = 0; dev < static_cast<std::size_t>(n_dev); ++dev) {
      first[dev + 1] += first[dev];
    }
    nodes.resize(static_cast<std::size_t>(n_nodes));
    std::vector<std::int32_t> fill(first.begin(), first.end() - 1);
    for (ib::NodeId node = 0; node < n_nodes; ++node) {
      nodes[static_cast<std::size_t>(fill[static_cast<std::size_t>(
          leaf[static_cast<std::size_t>(node)])]++)] = node;
    }
  }
};

}  // namespace

RoutingTables RoutingTables::compute(const Topology& topo, TieBreak tie_break) {
  RoutingTables rt;
  const std::int32_t n_dev = topo.device_count();
  const std::int32_t n_nodes = topo.node_count();
  const std::size_t n_switches = topo.switches().size();

  static_assert(kMaxSwitchPorts <= std::numeric_limits<std::int8_t>::max(),
                "an LFT entry must hold every port number");
  rt.switch_slot_.assign(static_cast<std::size_t>(n_dev), -1);
  for (std::size_t i = 0; i < n_switches; ++i) {
    const DeviceId sw = topo.switches()[i];
    IBSIM_ASSERT(topo.port_count(sw) <= kMaxSwitchPorts, "switch wider than kMaxSwitchPorts");
    rt.switch_slot_[static_cast<std::size_t>(sw)] = static_cast<std::int32_t>(i);
  }
  rt.stride_ = static_cast<std::size_t>(n_nodes);
  rt.lft_.assign(n_switches * rt.stride_, -1);

  // An HCA has exactly one cabled port, so every route to it ends with
  // the hop from its leaf: its distance from any switch is one more
  // than the leaf's, and every switch but the leaf sees the same
  // candidate next hops for all nodes on that leaf. One BFS per leaf
  // therefore serves all of its nodes; only the d-mod-k pick differs
  // per destination.
  const Adjacency adj(topo);
  const Attachments at(topo);
  constexpr std::int32_t kUnreached = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n_dev));
  std::vector<DeviceId> queue;
  queue.reserve(static_cast<std::size_t>(n_dev));
  std::vector<std::int32_t> candidates;  // reused across (leaf, switch) pairs

  for (DeviceId leaf = 0; leaf < n_dev; ++leaf) {
    const std::int32_t nodes_begin = at.first[static_cast<std::size_t>(leaf)];
    const std::int32_t nodes_end = at.first[static_cast<std::size_t>(leaf) + 1];
    if (nodes_begin == nodes_end) continue;  // no HCA attached

    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[static_cast<std::size_t>(leaf)] = 0;
    queue.clear();
    queue.push_back(leaf);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const DeviceId dev = queue[head];
      const std::int32_t d = dist[static_cast<std::size_t>(dev)];
      for (std::int32_t e = adj.first[static_cast<std::size_t>(dev)];
           e < adj.first[static_cast<std::size_t>(dev) + 1]; ++e) {
        const DeviceId peer = adj.edges[static_cast<std::size_t>(e)].peer;
        auto& pd = dist[static_cast<std::size_t>(peer)];
        if (pd == kUnreached) {
          pd = d + 1;
          queue.push_back(peer);
        }
      }
    }

    for (std::size_t slot = 0; slot < n_switches; ++slot) {
      std::int8_t* row = rt.lft_.data() + slot * rt.stride_;
      const DeviceId sw = topo.switches()[slot];
      if (sw == leaf) {
        // The last hop: straight down the node's own cable.
        for (std::int32_t i = nodes_begin; i < nodes_end; ++i) {
          const ib::NodeId dst = at.nodes[static_cast<std::size_t>(i)];
          row[dst] = static_cast<std::int8_t>(at.leaf_port[static_cast<std::size_t>(dst)]);
        }
        continue;
      }
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
      const auto n_candidates = static_cast<std::uint32_t>(candidates.size());
      for (std::int32_t i = nodes_begin; i < nodes_end; ++i) {
        const ib::NodeId dst = at.nodes[static_cast<std::size_t>(i)];
        const std::uint32_t pick =
            tie_break == TieBreak::DModK
                ? static_cast<std::uint32_t>(dst) % n_candidates  // d-mod-k spreading
                : 0;                                               // lowest port (DOR)
        row[dst] = static_cast<std::int8_t>(candidates[pick]);
      }
    }
  }
  return rt;
}

std::vector<DeviceId> RoutingTables::trace(const Topology& topo, ib::NodeId src,
                                           ib::NodeId dst) const {
  std::vector<DeviceId> path;
  DeviceId dev = topo.hca_device(src);
  path.push_back(dev);
  if (src == dst) return path;
  // Leave the source HCA through its only port.
  PortRef hop = topo.peer(PortRef{dev, 0});
  IBSIM_ASSERT(hop.valid(), "source HCA is not cabled");
  dev = hop.device;
  path.push_back(dev);
  const DeviceId dst_dev = topo.hca_device(dst);
  std::int32_t guard = topo.device_count() + 2;
  while (dev != dst_dev) {
    IBSIM_ASSERT(topo.kind(dev) == DeviceKind::Switch, "route wandered into an HCA");
    const std::int32_t port = out_port(dev, dst);
    IBSIM_ASSERT(port >= 0, "destination unreachable from switch");
    hop = topo.peer(PortRef{dev, port});
    IBSIM_ASSERT(hop.valid(), "LFT points at an uncabled port");
    dev = hop.device;
    path.push_back(dev);
    IBSIM_ASSERT(--guard > 0, "routing loop detected");
  }
  return path;
}

}  // namespace ibsim::topo
