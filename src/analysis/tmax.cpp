#include "analysis/tmax.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace ibsim::analysis {

double tmax_gbps(const TmaxInputs& in) {
  IBSIM_ASSERT(in.n_nodes > 0, "tmax needs nodes");
  const double uniform_offered =
      (static_cast<double>(in.n_b) * (1.0 - in.p) + static_cast<double>(in.n_v)) *
      in.inject_gbps;
  const double per_node = uniform_offered / static_cast<double>(in.n_nodes);
  return std::min(per_node, in.drain_gbps);
}

}  // namespace ibsim::analysis
