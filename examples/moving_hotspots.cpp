// Moving congestion trees (paper section III-C): hotspots relocate every
// `lifetime`, tearing congestion trees down and regrowing them elsewhere
// — the "cloud" workload whose communication pattern nobody knows in
// advance. Shows how the CC advantage shrinks (but doesn't turn harmful)
// as the dynamics speed up.
//
//   ./moving_hotspots [--lifetime-us=L] [--steps=N] [--seed=S]
//
// L is the longest lifetime swept (positive), halved at each of the N
// steps; a step simulates eight lifetimes. The whole sweep is checked
// before the first run, so a bad one prints nothing on stdout.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

namespace {

/// `t` in microseconds, exactly: halving leaves fractions ("12.5").
std::string exact_us(ibsim::core::Time t) {
  char frac[24];
  std::snprintf(frac, sizeof(frac), ".%06lld",
                static_cast<long long>(t % ibsim::core::kMicrosecond));
  std::string digits = frac;
  digits.erase(digits.find_last_not_of("0.") + 1);  // ".500000" -> ".5", ".000000" -> ""
  return std::to_string(t / ibsim::core::kMicrosecond) + digits;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(8, 4, 4);  // 32 nodes
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;  // silent trees...
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 1600 * core::kMicrosecond;  // ...that move
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;

  sim::Cli cli(
      "moving_hotspots: CC advantage vs hotspot lifetime\n"
      "--lifetime-us is the longest lifetime swept, halved each step; it must be positive");
  sim::add_config_flags(&cli, config, {"lifetime_us", "seed"});
  cli.add_int("steps", 4, "number of lifetimes swept (halving each step)");
  if (!cli.parse(argc, argv)) return 0;
  sim::exit_on_error(sim::apply_config_flags(cli, &config));
  const core::Time longest = config.scenario.hotspot_lifetime;
  if (longest == core::kTimeNever) {
    sim::exit_on_error("--lifetime-us must be positive: the hotspots move");
  }
  if (longest > core::kTimeNever / 8) {
    sim::exit_on_error("--lifetime-us=" + cli.get_string("lifetime-us") +
                       ": a step simulates eight lifetimes, so at most " +
                       std::to_string(core::kTimeNever / 8 / core::kMicrosecond));
  }
  const std::int64_t steps = cli.get_int("steps");
  if (steps < 1) sim::exit_on_error("--steps must be at least 1, not " + std::to_string(steps));
  std::vector<sim::SimConfig> sweep;
  for (core::Time lifetime = longest; std::ssize(sweep) < steps; lifetime /= 2) {
    if (lifetime == 0) {
      sim::exit_on_error("--lifetime-us=" + cli.get_string("lifetime-us") +
                         " halves to 0 ps within --steps=" + std::to_string(steps));
    }
    config.scenario.hotspot_lifetime = lifetime;
    config.sim_time = 8 * lifetime;
    config.warmup = lifetime;
    sim::exit_on_error(sim::check_config(config));
    sweep.push_back(config);
  }

  std::printf("moving hotspots: %d nodes, 80%% contributors, 2 hotspots\n\n",
              config.clos.node_count());

  analysis::TextTable table(
      {"Lifetime (us)", "all-node rcv CC off", "all-node rcv CC on", "gain"});
  for (sim::SimConfig& cell : sweep) {
    cell.cc.enabled = false;
    const sim::SimResult off = sim::run_sim(cell);
    cell.cc.enabled = true;
    const sim::SimResult on = sim::run_sim(cell);
    table.add_row({exact_us(cell.scenario.hotspot_lifetime),
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
