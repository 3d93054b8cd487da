// Reproduces Table II of the paper: the silent forest of congestion
// trees on the 648-node fat-tree. 80% C nodes send exclusively to 8
// static hotspots, 20% V nodes send uniformly; the four sub-scenarios
// (hotspots inactive/active x CC off/on) plus the total-throughput rows
// are printed in the paper's layout, alongside the paper's values.
//
//   ./table2_silent [--full] [--seed=S] [--csv=path] [--result-store=DIR]
//
// The quick preset's table is committed as
// bench/transcripts/table2_silent.quick.txt and must print byte for byte.

#include <cstdio>

#include "analysis/table.hpp"
#include "front_end.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  sim::Cli cli = bench::paper_cli("table2_silent", "paper Table II (silent congestion trees)",
                                  "paper-scale simulated time (also IBSIM_FULL=1)",
                                  {"seed", "result_store"});
  cli.add_string("csv", "", "also write results as CSV to this path");
  sim::ExperimentPreset preset;
  if (!bench::parse_preset(cli, argc, argv, &preset)) return 0;

  std::printf("Table II — performance numbers (Gbps), silent congestion trees\n");
  std::printf("topology: %d-node folded Clos (%d leaves x %d spines)\n\n",
              preset.base.clos.node_count(), preset.base.clos.leaves, preset.base.clos.spines);

  const sim::Table2Result result = sim::run_table2(preset);
  analysis::TextTable table = sim::format_table2(result);
  table.print();

  std::printf("\npaper values: 2.699 / 2.701 | 13.602 / 0.168 | 13.279 / 2.246 | "
              "216.073 / 1543.793\n");
  std::printf("CC total-throughput improvement: %.2fx (paper: %.2fx)\n",
              result.total_throughput_off > 0.0
                  ? result.total_throughput_on / result.total_throughput_off
                  : 0.0,
              1543.793 / 216.073);

  bench::write_csv(cli, table);
  store::report_stats(preset.base.result_store);
  return 0;
}
