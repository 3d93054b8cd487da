#pragma once

#include <cstdint>

#include "core/rng.hpp"
#include "ib/types.hpp"

namespace ibsim::traffic {

/// Uniform over all end nodes except the sender itself — the paper's
/// "uniform destination distribution including all nodes in the network
/// (except the node itself)" (Frame I).
class UniformDestination {
 public:
  UniformDestination(ib::NodeId self, std::int32_t n_nodes);
  [[nodiscard]] ib::NodeId draw(core::Rng& rng);

 private:
  ib::NodeId self_;
  std::int32_t n_nodes_;
};

}  // namespace ibsim::traffic
