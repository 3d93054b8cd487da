#pragma once

#include <cstdint>

namespace ibsim::analysis {

/// Inputs of the analytic "tmax" model the paper plots in figures 5-8(a):
/// the theoretical maximum average receive rate of the non-hotspot nodes
/// if the hotspots were not present, i.e. if all traffic offered to
/// non-hotspot destinations arrived unhindered.
struct TmaxInputs {
  std::int32_t n_nodes = 648;
  std::int32_t n_b = 0;   ///< B nodes (send p to hotspot, 1-p uniform)
  std::int32_t n_v = 0;   ///< V nodes (send everything uniformly)
  double p = 0.0;         ///< hotspot fraction of B traffic
  double inject_gbps = 13.5;
  double drain_gbps = 13.6;  ///< per-node receive ceiling
};

/// tmax = min(uniform traffic offered / n_nodes, drain ceiling).
///
/// Uniform (non-hotspot-directed) offered load is n_b (1-p) + n_v nodes'
/// worth of injection; the paper averages it over all nodes of the
/// network (e.g. 25% B at p=0: (162+97) x 13.5 / 648 = 5.4 Gb/s, the
/// tmax value quoted in section V-B.1).
[[nodiscard]] double tmax_gbps(const TmaxInputs& in);

}  // namespace ibsim::analysis
