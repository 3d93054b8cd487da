#include "traffic/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/assert.hpp"

namespace ibsim::traffic {

const char* role_name(NodeRole role) {
  switch (role) {
    case NodeRole::B: return "B";
    case NodeRole::C: return "C";
    case NodeRole::V: return "V";
  }
  return "?";
}

std::string ScenarioSpec::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "B=%.0f%% p=%.0f%% C/rest=%.0f%% hotspots=%d lifetime=%s%s",
                fraction_b * 100.0, p * 100.0, fraction_c_of_rest * 100.0, n_hotspots,
                hotspot_lifetime == core::kTimeNever ? "static"
                                                     : core::format_time(hotspot_lifetime).c_str(),
                c_nodes_active ? "" : " (C inactive)");
  return buf;
}

Scenario::Scenario(std::int32_t n_nodes, const ScenarioSpec& spec, core::Rng rng)
    : n_nodes_(n_nodes), spec_(spec), rng_(rng) {
  IBSIM_ASSERT(n_nodes >= 2, "scenario needs at least two nodes");
  IBSIM_ASSERT(spec.fraction_b >= 0.0 && spec.fraction_b <= 1.0, "fraction_b out of range");
  IBSIM_ASSERT(spec.fraction_c_of_rest >= 0.0 && spec.fraction_c_of_rest <= 1.0,
               "fraction_c out of range");
  IBSIM_ASSERT(spec.p >= 0.0 && spec.p <= 1.0, "p out of range");

  // Random role placement: shuffle the node ids, then carve off B, C, V
  // contiguously from the shuffled order ("randomly distributed in the
  // topology").
  std::vector<ib::NodeId> order(static_cast<std::size_t>(n_nodes));
  for (std::int32_t i = 0; i < n_nodes; ++i) order[static_cast<std::size_t>(i)] = i;
  core::Rng shuffle_rng = rng_.fork("roles", 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(shuffle_rng.next_below(i));
    std::swap(order[i - 1], order[j]);
  }

  const auto n_b = static_cast<std::int32_t>(
      std::llround(spec.fraction_b * static_cast<double>(n_nodes)));
  const std::int32_t rest = n_nodes - n_b;
  const auto n_c = static_cast<std::int32_t>(
      std::llround(spec.fraction_c_of_rest * static_cast<double>(rest)));

  roles_.assign(static_cast<std::size_t>(n_nodes), NodeRole::V);
  for (std::int32_t i = 0; i < n_b; ++i)
    roles_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = NodeRole::B;
  for (std::int32_t i = n_b; i < n_b + n_c; ++i)
    roles_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = NodeRole::C;

  schedule_ = std::make_unique<HotspotSchedule>(n_nodes, spec.n_hotspots,
                                                spec.hotspot_lifetime, rng_.fork("hotspots", 0));
  providers_.reserve(static_cast<std::size_t>(spec.n_hotspots));
  for (std::int32_t s = 0; s < spec.n_hotspots; ++s) {
    providers_.push_back(std::make_unique<ScheduleHotspot>(schedule_.get(), s));
  }

  // Contributors (B and C separately) are divided evenly into the
  // hotspot subsets, in shuffled-node order.
  subset_of_node_.assign(static_cast<std::size_t>(n_nodes), -1);
  if (spec.n_hotspots > 0) {
    std::int32_t next_b = 0;
    std::int32_t next_c = 0;
    for (const ib::NodeId node : order) {
      const NodeRole r = roles_[static_cast<std::size_t>(node)];
      if (r == NodeRole::B) {
        subset_of_node_[static_cast<std::size_t>(node)] = next_b++ % spec.n_hotspots;
      } else if (r == NodeRole::C) {
        subset_of_node_[static_cast<std::size_t>(node)] = next_c++ % spec.n_hotspots;
      }
    }
  }
}

void Scenario::install(fabric::Fabric& fabric, core::Scheduler& sched) {
  IBSIM_ASSERT(!installed_, "scenario installed twice");
  IBSIM_ASSERT(fabric.node_count() == n_nodes_, "fabric size does not match scenario");
  installed_ = true;

  generators_.reserve(static_cast<std::size_t>(n_nodes_));
  gen_ptrs_.reserve(static_cast<std::size_t>(n_nodes_));
  for (ib::NodeId node = 0; node < n_nodes_; ++node) {
    const NodeRole r = roles_[static_cast<std::size_t>(node)];
    if (r == NodeRole::C && !spec_.c_nodes_active) continue;  // silent C node

    BNodeParams params;
    params.capacity_gbps = spec_.capacity_gbps;
    switch (r) {
      case NodeRole::B: params.p = spec_.p; break;
      case NodeRole::C: params.p = 1.0; break;
      case NodeRole::V: params.p = 0.0; break;
    }
    const std::int32_t subset = subset_of_node_[static_cast<std::size_t>(node)];
    const HotspotProvider* provider =
        (params.p > 0.0 && subset >= 0) ? providers_[static_cast<std::size_t>(subset)].get()
                                        : nullptr;
    if (params.p > 0.0 && provider == nullptr) {
      // A contributor without any hotspot configured degenerates to a
      // pure uniform sender.
      params.p = 0.0;
    }

    fabric::Hca& hca = fabric.hca(node);
    const cc::FlowGate* gate =
        fabric.cc_manager().enabled() ? &hca.cc_agent() : nullptr;
    generators_.push_back(std::make_unique<BNodeGenerator>(
        node, n_nodes_, params, provider, gate, &fabric.arena_for_node(node),
        rng_.fork("gen", static_cast<std::uint64_t>(node))));
    gen_ptrs_.push_back(generators_.back().get());
    hca.attach_source(generators_.back().get());
  }
  schedule_->install(sched);
}

std::int32_t Scenario::count(NodeRole role) const {
  std::int32_t n = 0;
  for (const NodeRole r : roles_) n += (r == role) ? 1 : 0;
  return n;
}

}  // namespace ibsim::traffic
