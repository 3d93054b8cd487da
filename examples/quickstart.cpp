// Quickstart: congestion control on a small fat-tree.
//
// Builds a 6-leaf x 3-spine folded Clos (18 end nodes), points half the
// nodes at a single hotspot, and runs the same scenario twice — with the
// InfiniBand CC mechanism disabled and enabled (paper Table I parameter
// values) — printing the receive rates of hotspot and victim nodes.
//
//   ./quickstart [--clos-nodes-per-leaf=N] [--sim-time-us=T] [--seed=S]

#include <cstdio>

#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(6, 3, 3);
  config.sim_time = 2000 * core::kMicrosecond;
  // Half the nodes hammer one hotspot (C nodes), the rest send uniformly
  // (V nodes) and become the victims of the congestion tree.
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.5;
  config.scenario.n_hotspots = 1;

  sim::Cli cli("quickstart: IB congestion control on a small fat-tree");
  sim::add_config_flags(&cli, config, {"clos_nodes_per_leaf", "sim_time_us", "seed"});
  if (!cli.parse(argc, argv)) return 0;
  sim::exit_on_error(sim::apply_config_flags(cli, &config));
  config.warmup = config.sim_time / 4;
  sim::exit_on_error(sim::check_config(config));

  std::printf("fabric: %d leaves x %d spines, %d end nodes\n", config.clos.leaves,
              config.clos.spines, config.clos.node_count());
  std::printf("scenario: %s\n\n", config.scenario.describe().c_str());

  sim::SimResult result[2];
  for (const bool cc_on : {false, true}) {
    config.cc.enabled = cc_on;
    result[cc_on ? 1 : 0] = sim::run_sim(config);
    const sim::SimResult& r = result[cc_on ? 1 : 0];
    std::printf("CC %-3s | hotspot %6.2f Gb/s | victims %6.2f Gb/s | total %8.2f Gb/s | "
                "FECN %llu, BECN %llu\n",
                cc_on ? "on" : "off", r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps,
                r.total_throughput_gbps, static_cast<unsigned long long>(r.fecn_marked),
                static_cast<unsigned long long>(r.becn_received));
  }

  const double gain = result[0].non_hotspot_rcv_gbps > 0.0
                          ? result[1].non_hotspot_rcv_gbps / result[0].non_hotspot_rcv_gbps
                          : 0.0;
  std::printf("\nEnabling CC improved the victims' receive rate %.1fx.\n", gain);
  return 0;
}
