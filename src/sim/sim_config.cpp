#include "sim/sim_config.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/config_fields.hpp"
#include "workload/spec.hpp"

namespace ibsim::sim {

std::int32_t SimConfig::node_count() const {
  switch (topology) {
    case TopologyKind::SingleSwitch: return single_switch_nodes;
    case TopologyKind::FoldedClos: return clos.node_count();
    case TopologyKind::FatTree3: return fat_tree3.node_count();
    case TopologyKind::LinearChain: return chain_switches * chain_nodes_per_switch;
    case TopologyKind::Dumbbell: return 2 * dumbbell_nodes_per_side;
    case TopologyKind::Mesh2D: return mesh_rows * mesh_cols * mesh_nodes_per_switch;
  }
  return 0;
}

std::string SimConfig::describe() const {
  const std::string cc_desc = cc.enabled ? "on (" + cc_algo + ")" : "off";
  std::string traffic_desc;
  if (workload.active()) {
    char wbuf[160];
    std::snprintf(wbuf, sizeof(wbuf), "workload %s x%d (%d ranks, %lld B msgs%s)",
                  workload.name.c_str(), workload.iterations,
                  workload.ranks > 0 ? workload.ranks : node_count(),
                  static_cast<long long>(workload.message_bytes),
                  workload.background_uniform ? ", bg uniform" : "");
    traffic_desc = wbuf;
  } else {
    traffic_desc = scenario.describe();
  }
  char buf[320];
  const std::string topology_text = field_text(*find_config_field("topology"), *this);
  std::snprintf(buf, sizeof(buf), "%s (%d nodes), CC %s, %s, sim %s (warmup %s), seed %llu",
                topology_text.c_str(), node_count(), cc_desc.c_str(),
                traffic_desc.c_str(), core::format_time(sim_time).c_str(),
                core::format_time(warmup).c_str(),
                static_cast<unsigned long long>(seed));
  return buf;
}

std::string check_config(const SimConfig& config) {
  using std::to_string;
  // Ports of the widest switch the topology's builder makes, in 64 bits
  // so that no dimension overflows before it is rejected.
  std::int64_t widest = 0;
  switch (config.topology) {
    case TopologyKind::SingleSwitch:
      if (config.single_switch_nodes < 2) return "single_nodes must be at least 2";
      widest = config.single_switch_nodes;
      break;
    case TopologyKind::FoldedClos: {
      const topo::FoldedClosParams& clos = config.clos;
      if (clos.leaves < 1 || clos.spines < 1 || clos.nodes_per_leaf < 1) {
        return "clos_leaves, clos_spines and clos_nodes_per_leaf must be at least 1";
      }
      widest = std::max(std::int64_t{clos.nodes_per_leaf} + clos.spines,  // leaf_ports()
                        std::int64_t{clos.leaves});                        // spine
      break;
    }
    case TopologyKind::FatTree3: {
      const topo::FatTree3Params& ft = config.fat_tree3;
      if (ft.pods < 1 || ft.leaves_per_pod < 1 || ft.aggs_per_pod < 1 || ft.cores < 1 ||
          ft.nodes_per_leaf < 1) {
        return "ft3_pods, ft3_leaves_per_pod, ft3_aggs_per_pod, ft3_cores and "
               "ft3_nodes_per_leaf must be at least 1";
      }
      widest = std::max({std::int64_t{ft.nodes_per_leaf} + ft.aggs_per_pod,  // leaf
                         std::int64_t{ft.leaves_per_pod} + ft.cores,         // aggregation
                         std::int64_t{ft.pods} * ft.aggs_per_pod});          // core
      break;
    }
    case TopologyKind::LinearChain:
      if (config.chain_switches < 2) return "chain_switches must be at least 2";
      if (config.chain_nodes_per_switch < 1) return "chain_nodes must be at least 1";
      widest = std::int64_t{config.chain_nodes_per_switch} + 2;
      break;
    case TopologyKind::Dumbbell:
      if (config.dumbbell_nodes_per_side < 1) return "dumbbell_nodes must be at least 1";
      widest = std::int64_t{config.dumbbell_nodes_per_side} + 1;
      break;
    case TopologyKind::Mesh2D:
      if (config.mesh_rows < 1 || config.mesh_cols < 1 ||
          std::int64_t{config.mesh_rows} * config.mesh_cols < 2) {
        return "mesh_rows and mesh_cols must be at least 1 and give at least 2 switches";
      }
      if (config.mesh_nodes_per_switch < 1) return "mesh_nodes must be at least 1";
      widest = std::int64_t{config.mesh_nodes_per_switch} + 4;
      break;
  }
  if (widest > topo::kMaxSwitchPorts) {
    return "the topology needs a " + to_string(widest) + "-port switch; switches have at most " +
           to_string(topo::kMaxSwitchPorts) + " ports";
  }

  // A zero-length window (sim_time == warmup) is valid: it reads zero.
  if (config.warmup < 0) return "warmup_us must be non-negative";
  if (config.sim_time < config.warmup) return "sim_time_us must be at least warmup_us";

  const std::int32_t nodes = config.node_count();
  const std::string on_nodes = " on " + to_string(nodes) + " end nodes";
  if (const WorkloadSettings& w = config.workload; w.active()) {
    if (w.ranks < 0) return "workload_ranks must be non-negative (0 = all nodes)";
    std::int32_t ranks = w.ranks > 0 ? w.ranks : nodes;
    if (w.name == "file") {
      if (w.file.empty()) return "workload = file needs workload_file";
      workload::WorkloadSpec spec;
      if (const std::string err = workload::load_workload_file(w.file, &spec); !err.empty()) {
        return "workload_file: " + err;
      }
      ranks = spec.ranks;
    } else {
      // What the canned builders and the engine's spec check assert.
      if (ranks < 2 && w.name != "idle") {
        return "workload " + w.name + " needs at least 2 ranks (workload_ranks), not " +
               to_string(ranks);
      }
      if (w.message_bytes < 1) return "workload_bytes must be at least 1";
      if (w.iterations < 1) return "workload_iters must be at least 1";
      if (w.compute < 0) return "workload_compute_us must be non-negative";
    }
    if (ranks > nodes) return "the workload has " + to_string(ranks) + " ranks" + on_nodes;
  } else {
    const traffic::ScenarioSpec& sc = config.scenario;
    if (nodes < 2) {
      return "the traffic scenario needs at least 2 end nodes, not " + to_string(nodes);
    }
    if (!(sc.fraction_b >= 0.0 && sc.fraction_b <= 1.0)) return "fraction_b must be in [0, 1]";
    if (!(sc.fraction_c_of_rest >= 0.0 && sc.fraction_c_of_rest <= 1.0)) {
      return "fraction_c must be in [0, 1]";
    }
    if (!(sc.p >= 0.0 && sc.p <= 1.0)) return "p_percent must be in [0, 100]";
    if (sc.n_hotspots < 0 || sc.n_hotspots > nodes) {
      return "hotspots = " + to_string(sc.n_hotspots) + " does not fit" + on_nodes;
    }
    // A move at the instant of the last would reschedule itself forever.
    if (sc.hotspot_lifetime <= 0) {
      return "moving hotspots need a positive lifetime_us, not " +
             core::format_time(sc.hotspot_lifetime);
    }
  }
  if (std::string err = fabric::check_rate("inject_gbps", config.scenario.capacity_gbps);
      !err.empty()) {
    return err;
  }
  if (std::string err = config.cc.validate(); !err.empty()) return err;
  if (std::string err = config.fabric.validate(); !err.empty()) return err;
  if (!config.telemetry.counters_csv.empty() && config.telemetry.sample_interval <= 0) {
    return "telemetry_sample_us must be at least 1 with counters_csv";
  }
  if (config.telemetry.tracing() && config.telemetry.trace_ring_capacity < 1) {
    return "trace_ring must be at least 1 with trace_file";
  }
  if (config.shards < 1) return "shards must be at least 1";
  return {};
}

}  // namespace ibsim::sim
