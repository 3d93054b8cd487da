#pragma once

// Shared driver for the windy-forest figure benches (paper figures 5-8):
// sweeps p from 0 to 100% at a fixed B-node fraction and prints the
// three sub-figures (non-hotspot receive + tmax, hotspot receive, total
// throughput improvement).

#include <cstdio>
#include <string>

#include "store_opt.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"

namespace ibsim::bench {

inline int run_windy_figure_main(int argc, char** argv, const char* figure_name,
                                 double fraction_b, const char* paper_notes) {
  if (handle_version_flag(argc, argv, figure_name)) return 0;

  sim::Cli cli(std::string(figure_name) +
               ": windy congestion-tree sweep, B fraction " +
               std::to_string(static_cast<int>(fraction_b * 100)) + "%");
  cli.add_flag("full", "paper-scale simulated time (also IBSIM_FULL=1)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("csv", "", "CSV output path prefix (three files)");
  add_store_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  sim::ExperimentPreset preset = sim::ExperimentPreset::from_env(cli.flag("full"));
  preset.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  preset.base.result_store = cli.get_string("result-store");

  std::printf("%s: %d-node fat-tree, %.0f%% B nodes, p = 0..100\n", figure_name,
              preset.base.clos.node_count(), fraction_b * 100.0);
  const sim::WindyFigure fig = sim::run_windy_figure(preset, fraction_b);
  sim::print_windy_figure(fig);
  std::printf("paper: %s\n", paper_notes);

  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    sim::write_windy_csv(fig, csv);
    std::printf("CSV written with prefix %s\n", csv.c_str());
  }
  report_store(preset.base.result_store);
  return 0;
}

}  // namespace ibsim::bench
