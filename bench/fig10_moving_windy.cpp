// Reproduces figure 10 of the paper: moving windy congestion trees.
// 100% B nodes at p = 30 / 60 / 90 with moving hotspots; avg receive
// rate of all nodes vs decreasing hotspot lifetime, CC off and on.

#include <cstdio>

#include "front_end.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  sim::Cli cli = bench::paper_cli("fig10_moving_windy",
                                  "moving windy trees (100% B), lifetime sweep",
                                  "paper-scale lifetimes and CC loop (also IBSIM_FULL=1)",
                                  {"seed", "result_store"});
  cli.add_string("csv", "", "CSV output path prefix (one file per sub-figure)");
  sim::ExperimentPreset preset;
  if (!bench::parse_preset(cli, argc, argv, &preset)) return 0;
  const std::string csv = cli.get_string("csv");

  std::printf("fig10: %d-node fat-tree, 8 moving hotspots, 100%% B nodes\n\n",
              preset.base.clos.node_count());

  const char* names[3] = {"_a_p30", "_b_p60", "_c_p90"};
  const double ps[3] = {0.3, 0.6, 0.9};
  for (int i = 0; i < 3; ++i) {
    const sim::MovingCurve curve = sim::run_moving_windy(preset, ps[i]);
    sim::print_moving_curve(curve);
    if (!csv.empty()) sim::write_moving_csv(curve, csv + names[i]);
  }

  std::printf("paper: CC improves performance at every p and lifetime, with the\n"
              "       advantage shrinking as the hotspot lifetime decreases.\n");
  store::report_stats(preset.base.result_store);
  return 0;
}
