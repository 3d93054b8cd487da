// Reproduces figure 9 of the paper: moving silent congestion trees.
// Both sub-figures — (a) 20% V / 80% C and (b) 60% V / 40% C — sweep the
// hotspot lifetime downwards and report the average receive rate of all
// nodes with CC off and on.
//
// The quick preset compresses the lifetime axis 1:4 together with the
// CC control loop (see ExperimentPreset); --full uses the paper's
// 10 ms..1 ms lifetimes with the exact Table I parameters.

#include <cstdio>

#include "store_opt.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  if (bench::handle_version_flag(argc, argv, "fig9_moving_silent")) return 0;

  sim::Cli cli("fig9_moving_silent: moving silent trees, lifetime sweep");
  cli.add_flag("full", "paper-scale lifetimes and CC loop (also IBSIM_FULL=1)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("csv", "", "CSV output path prefix (one file per sub-figure)");
  bench::add_store_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  sim::ExperimentPreset preset = sim::ExperimentPreset::from_env(cli.flag("full"));
  preset.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  preset.base.result_store = cli.get_string("result-store");
  const std::string csv = cli.get_string("csv");

  std::printf("fig9: %d-node fat-tree, 8 moving hotspots, silent trees\n\n",
              preset.base.clos.node_count());

  const sim::MovingCurve fig9a = sim::run_moving_silent(preset, /*fraction_v=*/0.2);
  sim::print_moving_curve(fig9a);
  if (!csv.empty()) sim::write_moving_csv(fig9a, csv + "_a_20v80c");

  const sim::MovingCurve fig9b = sim::run_moving_silent(preset, /*fraction_v=*/0.6);
  sim::print_moving_curve(fig9b);
  if (!csv.empty()) sim::write_moving_csv(fig9b, csv + "_b_60v40c");

  std::printf("paper: (a) CC wins 55%% at 10 ms lifetime shrinking to 4%% at 1 ms;\n"
              "       (b) CC wins 2.6x at 10 ms shrinking to 10%% at 1 ms;\n"
              "       receive rates rise as lifetimes shrink in both cases.\n");
  bench::report_store(preset.base.result_store);
  return 0;
}
