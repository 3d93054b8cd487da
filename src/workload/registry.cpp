#include "workload/registry.hpp"

#include <map>
#include <sstream>

#include "core/assert.hpp"

namespace ibsim::workload {
namespace {

const std::map<std::string, WorkloadRegistry::Builder>& builders() {
  static const std::map<std::string, WorkloadRegistry::Builder> map = {
      {"all_to_all", &build_all_to_all}, {"idle", &build_idle},
      {"incast", &build_incast},         {"ring_allreduce", &build_ring_allreduce},
      {"stencil", &build_stencil},       {"tree_allreduce", &build_tree_allreduce},
  };
  return map;
}

}  // namespace

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

bool WorkloadRegistry::contains(const std::string& name) const {
  return builders().count(name) != 0;
}

WorkloadSpec WorkloadRegistry::build(const std::string& name,
                                     const WorkloadParams& params) const {
  const auto it = builders().find(name);
  IBSIM_ASSERT(it != builders().end(), "unknown workload");
  WorkloadSpec spec = it->second(params);
  return spec;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(builders().size());
  for (const auto& [name, builder] : builders()) out.push_back(name);
  return out;
}

std::string WorkloadRegistry::names_joined() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, builder] : builders()) {
    if (!first) out << ", ";
    out << name;
    first = false;
  }
  return out.str();
}

}  // namespace ibsim::workload
