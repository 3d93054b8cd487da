// Moving congestion trees (paper section III-C): hotspots relocate every
// `lifetime`, tearing congestion trees down and regrowing them elsewhere
// — the "cloud" workload whose communication pattern nobody knows in
// advance. Shows how the CC advantage shrinks (but doesn't turn harmful)
// as the dynamics speed up.
//
//   ./moving_hotspots [--lifetime-us=L] [--steps=N] [--seed=S]

#include <cstdio>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("moving_hotspots: CC advantage vs hotspot lifetime");
  cli.add_int("lifetime-us", 1600, "longest hotspot lifetime in microseconds");
  cli.add_int("steps", 4, "number of lifetimes swept (halving each step)");
  cli.add_int("seed", 1, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(8, 4, 4);  // 32 nodes
  if (const std::string err = sim::apply_int_options(cli, {{"seed", "seed"}}, &config);
      !err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;  // silent trees...
  config.scenario.n_hotspots = 2;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;

  std::printf("moving hotspots: %d nodes, 80%% contributors, 2 hotspots\n\n",
              config.clos.node_count());

  analysis::TextTable table(
      {"Lifetime (us)", "all-node rcv CC off", "all-node rcv CC on", "gain"});
  core::Time lifetime = cli.get_int("lifetime-us") * core::kMicrosecond;
  for (int step = 0; step < cli.get_int("steps"); ++step, lifetime /= 2) {
    config.scenario.hotspot_lifetime = lifetime;  // ...that now move
    config.sim_time = 8 * lifetime;
    config.warmup = lifetime;
    if (const std::string err = sim::check_config(config); !err.empty()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    config.cc.enabled = false;
    const sim::SimResult off = sim::run_sim(config);
    config.cc.enabled = true;
    const sim::SimResult on = sim::run_sim(config);
    table.add_row({analysis::fmt(static_cast<double>(lifetime) / core::kMicrosecond, 0),
                   analysis::fmt(off.all_rcv_gbps), analysis::fmt(on.all_rcv_gbps),
                   analysis::fmt(off.all_rcv_gbps > 0 ? on.all_rcv_gbps / off.all_rcv_gbps : 0,
                                 2)});
  }
  table.print();
  std::printf("\nShorter lifetimes spread load by themselves (receive rates rise)\n"
              "while the CC feedback loop has less time to act — the advantage\n"
              "narrows, exactly the trend of the paper's figures 9 and 10.\n");
  return 0;
}
