// Reruns the paper's congestion-tree taxonomy (silent / windy / moving
// forests) once per reaction-point algorithm and prints one comparison
// table: how the annex-A10 CCT mechanism stacks up against a DCQCN-style
// rate controller, plain AIMD, and the explicit `none` passthrough,
// under identical traffic and seeds.
//
//   ./table_cc_compare [--full] [--seed=S] [--algos=a,b,...] [--csv=path]
//                      [--result-store=DIR]

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "ccalg/registry.hpp"
#include "front_end.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  sim::Cli cli = bench::paper_cli("table_cc_compare",
                                  "the congestion-tree taxonomy per CC algorithm",
                                  "paper-scale simulated time (also IBSIM_FULL=1)",
                                  {"seed", "result_store"});
  cli.add_string("algos", "", "comma-separated algorithm subset (default: all registered)");
  cli.add_string("csv", "", "also write results as CSV to this path");
  sim::ExperimentPreset preset;
  if (!bench::parse_preset(cli, argc, argv, &preset)) return 0;
  const std::vector<std::string> algos = bench::registered_names(
      cli, "algos", ccalg::CcAlgorithmRegistry::instance(), "cc algorithm");

  std::printf("CC algorithm comparison (Gbps), %d-node folded Clos, seed %llu\n\n",
              preset.base.clos.node_count(),
              static_cast<unsigned long long>(preset.base.seed));

  const sim::CcCompareResult result = sim::run_cc_compare(preset, algos);
  analysis::TextTable table = sim::format_cc_compare(result);
  table.print();

  bench::write_csv(cli, table);
  store::report_stats(preset.base.result_store);
  return 0;
}
