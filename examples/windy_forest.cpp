// Windy congestion trees on a configurable fat-tree: every node is a
// B node sending p% of its traffic to one of a few hotspots and the rest
// uniformly (paper section III-B). Sweeps p and prints victim throughput
// and the total-throughput gain from enabling CC — a miniature of the
// paper's figure 8 that runs in seconds.
//
//   ./windy_forest [--leaves=L] [--spines=S] [--nodes-per-leaf=N]
//                  [--hotspots=H] [--sim-time-us=T] [--seed=SEED]

#include <cstdio>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("windy_forest: B-node p-sweep on a small fat-tree");
  cli.add_int("leaves", 8, "leaf switches");
  cli.add_int("spines", 4, "spine switches");
  cli.add_int("nodes-per-leaf", 4, "end nodes per leaf");
  cli.add_int("hotspots", 2, "number of hotspots");
  cli.add_int("sim-time-us", 4000, "simulated time in microseconds");
  cli.add_int("seed", 1, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  std::string err = sim::apply_int_options(cli,
                                           {{"leaves", "clos_leaves"},
                                            {"spines", "clos_spines"},
                                            {"nodes-per-leaf", "clos_nodes_per_leaf"},
                                            {"hotspots", "hotspots"},
                                            {"sim-time-us", "sim_time_us"},
                                            {"seed", "seed"}},
                                           &config);
  config.warmup = config.sim_time / 2;
  config.scenario.fraction_b = 1.0;  // pure windy forest
  config.cc.ccti_increase = 4;  // quick loop for a demo-sized run
  config.cc.ccti_timer = 38;
  if (err.empty()) err = sim::check_config(config);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }

  std::printf("windy forest: %d nodes, %d hotspots, all B nodes\n\n",
              config.clos.node_count(), config.scenario.n_hotspots);

  analysis::TextTable table({"p (%)", "victims CC off", "victims CC on", "total gain (x)"});
  for (const double p : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    config.scenario.p = p;
    config.cc.enabled = false;
    const sim::SimResult off = sim::run_sim(config);
    config.cc.enabled = true;
    const sim::SimResult on = sim::run_sim(config);
    const double gain = off.total_throughput_gbps > 0
                            ? on.total_throughput_gbps / off.total_throughput_gbps
                            : 0.0;
    table.add_row({analysis::fmt(p * 100, 0), analysis::fmt(off.non_hotspot_rcv_gbps),
                   analysis::fmt(on.non_hotspot_rcv_gbps), analysis::fmt(gain, 2)});
  }
  table.print();
  std::printf(
      "\nThe gain peaks at intermediate-to-high p — hotspot traffic congests,\n"
      "yet enough uniform traffic remains to be rescued from HOL blocking\n"
      "(the cap shape of the paper's figures 5-8c). Note the low-p rows: on\n"
      "a fabric this small the congestion trees blanket most paths, so the\n"
      "marking also throttles innocent uniform flows and CC can cost more\n"
      "than it saves — collateral that vanishes at the paper's 648-node\n"
      "scale (run bench/fig8_windy100, where CC wins at every p > 0).\n");
  return 0;
}
