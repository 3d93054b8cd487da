#include "topo/builders.hpp"

#include <string>

#include "core/assert.hpp"

namespace ibsim::topo {

namespace {

/// A fat-tree switch name such as "p3leaf7": pod, role, index in the pod.
/// Built by appending: `"p" + std::to_string(pod) + ...` trips a GCC 12
/// -Wrestrict false positive.
std::string pod_switch_name(std::int32_t pod, const char* role, std::int32_t index) {
  std::string name = "p";
  name += std::to_string(pod);
  name += role;
  name += std::to_string(index);
  return name;
}

}  // namespace

Topology single_switch(std::int32_t nodes) {
  IBSIM_ASSERT(nodes >= 2, "single switch needs at least two nodes");
  Topology topo;
  const DeviceId sw = topo.add_switch(nodes, "xbar");
  for (std::int32_t i = 0; i < nodes; ++i) {
    const DeviceId hca = topo.add_hca();
    topo.connect(PortRef{hca, 0}, PortRef{sw, i});
  }
  return topo;
}

Topology folded_clos(const FoldedClosParams& params) {
  IBSIM_ASSERT(params.leaves > 0 && params.spines > 0 && params.nodes_per_leaf > 0,
               "folded clos dimensions must be positive");
  Topology topo;
  std::vector<DeviceId> leaves;
  leaves.reserve(static_cast<std::size_t>(params.leaves));
  for (std::int32_t l = 0; l < params.leaves; ++l) {
    leaves.push_back(topo.add_switch(params.leaf_ports(), "leaf" + std::to_string(l)));
    // Each leaf anchors a partition group; spines are spread over the
    // groups round-robin since every spine touches every leaf anyway.
    topo.set_partition_group(leaves.back(), l);
  }
  std::vector<DeviceId> spines;
  spines.reserve(static_cast<std::size_t>(params.spines));
  for (std::int32_t s = 0; s < params.spines; ++s) {
    spines.push_back(topo.add_switch(params.leaves, "spine" + std::to_string(s)));
    topo.set_partition_group(spines.back(), s % params.leaves);
  }
  // HCAs in leaf-major order so NodeId / nodes_per_leaf identifies the leaf.
  for (std::int32_t l = 0; l < params.leaves; ++l) {
    for (std::int32_t n = 0; n < params.nodes_per_leaf; ++n) {
      const DeviceId hca = topo.add_hca();
      topo.connect(PortRef{hca, 0}, PortRef{leaves[static_cast<std::size_t>(l)], n});
    }
  }
  for (std::int32_t l = 0; l < params.leaves; ++l) {
    for (std::int32_t s = 0; s < params.spines; ++s) {
      topo.connect(PortRef{leaves[static_cast<std::size_t>(l)], params.nodes_per_leaf + s},
                   PortRef{spines[static_cast<std::size_t>(s)], l});
    }
  }
  return topo;
}

Topology linear_chain(std::int32_t switches, std::int32_t nodes_per_switch) {
  IBSIM_ASSERT(switches >= 2, "chain needs at least two switches");
  IBSIM_ASSERT(nodes_per_switch >= 1, "chain needs nodes on each switch");
  Topology topo;
  // Ports: [0, nodes_per_switch) to HCAs, then port n = link to previous
  // switch, port n+1 = link to next switch.
  std::vector<DeviceId> sws;
  for (std::int32_t i = 0; i < switches; ++i) {
    sws.push_back(topo.add_switch(nodes_per_switch + 2, "chain" + std::to_string(i)));
  }
  for (std::int32_t i = 0; i < switches; ++i) {
    for (std::int32_t n = 0; n < nodes_per_switch; ++n) {
      const DeviceId hca = topo.add_hca();
      topo.connect(PortRef{hca, 0}, PortRef{sws[static_cast<std::size_t>(i)], n});
    }
  }
  for (std::int32_t i = 0; i + 1 < switches; ++i) {
    topo.connect(PortRef{sws[static_cast<std::size_t>(i)], nodes_per_switch + 1},
                 PortRef{sws[static_cast<std::size_t>(i + 1)], nodes_per_switch});
  }
  return topo;
}

Topology dumbbell(std::int32_t nodes_per_side) {
  IBSIM_ASSERT(nodes_per_side >= 1, "dumbbell needs nodes on each side");
  Topology topo;
  const DeviceId left = topo.add_switch(nodes_per_side + 1, "left");
  const DeviceId right = topo.add_switch(nodes_per_side + 1, "right");
  for (std::int32_t side = 0; side < 2; ++side) {
    const DeviceId sw = side == 0 ? left : right;
    for (std::int32_t n = 0; n < nodes_per_side; ++n) {
      const DeviceId hca = topo.add_hca();
      topo.connect(PortRef{hca, 0}, PortRef{sw, n});
    }
  }
  topo.connect(PortRef{left, nodes_per_side}, PortRef{right, nodes_per_side});
  return topo;
}

Topology fat_tree3(const FatTree3Params& params) {
  IBSIM_ASSERT(params.pods > 0 && params.leaves_per_pod > 0 && params.aggs_per_pod > 0 &&
                   params.cores > 0 && params.nodes_per_leaf > 0,
               "fat-tree dimensions must be positive");
  Topology topo;
  std::vector<DeviceId> leaves;
  std::vector<DeviceId> aggs;
  std::vector<DeviceId> cores;
  for (std::int32_t p = 0; p < params.pods; ++p) {
    for (std::int32_t l = 0; l < params.leaves_per_pod; ++l) {
      leaves.push_back(topo.add_switch(params.nodes_per_leaf + params.aggs_per_pod,
                                       pod_switch_name(p, "leaf", l)));
      // Pods are the natural shard unit: all intra-pod links stay inside
      // one partition group, only agg<->core links cross groups.
      topo.set_partition_group(leaves.back(), p);
    }
  }
  for (std::int32_t p = 0; p < params.pods; ++p) {
    for (std::int32_t a = 0; a < params.aggs_per_pod; ++a) {
      aggs.push_back(topo.add_switch(params.leaves_per_pod + params.cores,
                                     pod_switch_name(p, "agg", a)));
      topo.set_partition_group(aggs.back(), p);
    }
  }
  for (std::int32_t c = 0; c < params.cores; ++c) {
    cores.push_back(topo.add_switch(params.pods * params.aggs_per_pod,
                                    "core" + std::to_string(c)));
    topo.set_partition_group(cores.back(), c % params.pods);
  }
  // HCAs in leaf-major order.
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    for (std::int32_t i = 0; i < params.nodes_per_leaf; ++i) {
      const DeviceId hca = topo.add_hca();
      topo.connect(PortRef{hca, 0}, PortRef{leaves[l], i});
    }
  }
  // Leaf <-> agg, within each pod (full bipartite).
  for (std::int32_t p = 0; p < params.pods; ++p) {
    for (std::int32_t l = 0; l < params.leaves_per_pod; ++l) {
      const DeviceId leaf = leaves[static_cast<std::size_t>(p * params.leaves_per_pod + l)];
      for (std::int32_t a = 0; a < params.aggs_per_pod; ++a) {
        const DeviceId agg = aggs[static_cast<std::size_t>(p * params.aggs_per_pod + a)];
        topo.connect(PortRef{leaf, params.nodes_per_leaf + a}, PortRef{agg, l});
      }
    }
  }
  // Agg <-> core (full bipartite across pods).
  for (std::int32_t p = 0; p < params.pods; ++p) {
    for (std::int32_t a = 0; a < params.aggs_per_pod; ++a) {
      const DeviceId agg = aggs[static_cast<std::size_t>(p * params.aggs_per_pod + a)];
      for (std::int32_t c = 0; c < params.cores; ++c) {
        topo.connect(PortRef{agg, params.leaves_per_pod + c},
                     PortRef{cores[static_cast<std::size_t>(c)], p * params.aggs_per_pod + a});
      }
    }
  }
  return topo;
}

Topology mesh2d(std::int32_t rows, std::int32_t cols, std::int32_t nodes_per_switch) {
  IBSIM_ASSERT(rows >= 1 && cols >= 1 && rows * cols >= 2, "mesh needs at least two switches");
  IBSIM_ASSERT(nodes_per_switch >= 1, "mesh needs nodes on each switch");
  Topology topo;
  const std::int32_t n = nodes_per_switch;
  std::vector<DeviceId> sws;
  sws.reserve(static_cast<std::size_t>(rows * cols));
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      sws.push_back(topo.add_switch(n + 4, "mesh" + std::to_string(r) + "_" +
                                               std::to_string(c)));
      // Row-major groups: a contiguous split over rows cuts only the
      // Y-direction links between adjacent rows.
      topo.set_partition_group(sws.back(), r);
    }
  }
  auto at = [&](std::int32_t r, std::int32_t c) {
    return sws[static_cast<std::size_t>(r * cols + c)];
  };
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      for (std::int32_t i = 0; i < n; ++i) {
        const DeviceId hca = topo.add_hca();
        topo.connect(PortRef{hca, 0}, PortRef{at(r, c), i});
      }
    }
  }
  // Port layout after the HCAs: n = X-, n+1 = X+, n+2 = Y-, n+3 = Y+.
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c + 1 < cols; ++c) {
      topo.connect(PortRef{at(r, c), n + 1}, PortRef{at(r, c + 1), n});
    }
  }
  for (std::int32_t r = 0; r + 1 < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      topo.connect(PortRef{at(r, c), n + 3}, PortRef{at(r + 1, c), n + 2});
    }
  }
  return topo;
}

}  // namespace ibsim::topo
