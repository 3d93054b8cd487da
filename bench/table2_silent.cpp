// Reproduces Table II of the paper: the silent forest of congestion
// trees on the 648-node fat-tree. 80% C nodes send exclusively to 8
// static hotspots, 20% V nodes send uniformly; the four sub-scenarios
// (hotspots inactive/active x CC off/on) plus the total-throughput rows
// are printed in the paper's layout, alongside the paper's values.
//
//   ./table2_silent [--full] [--seed=S] [--csv=path] [--no-fast-path]
//
// --no-fast-path runs the reference one-event-per-action fabric chain;
// the printed table must be byte-identical to the default run (and to
// bench/transcripts/table2_silent.quick.txt), and the wall-clock delta
// is the fast path's win on this machine.

#include <cstdio>

#include "analysis/table.hpp"
#include "store_opt.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  if (bench::handle_version_flag(argc, argv, "table2_silent")) return 0;

  sim::Cli cli("table2_silent: paper Table II (silent congestion trees)");
  cli.add_flag("full", "paper-scale simulated time (also IBSIM_FULL=1)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("csv", "", "also write results as CSV to this path");
  cli.add_flag("no-fast-path", "reference event chain (A/B timing; same output)");
  bench::add_store_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  sim::ExperimentPreset preset = sim::ExperimentPreset::from_env(cli.flag("full"));
  preset.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  preset.base.fabric.fast_path = !cli.flag("no-fast-path");
  preset.base.result_store = cli.get_string("result-store");

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

  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    FILE* f = std::fopen(csv.c_str(), "w");
    if (f != nullptr) {
      std::fputs(table.render_csv().c_str(), f);
      std::fclose(f);
      std::printf("CSV written to %s\n", csv.c_str());
    }
  }
  bench::report_store(preset.base.result_store);
  return 0;
}
