// Reruns the paper's congestion-tree taxonomy (silent / windy / moving
// forests) once per reaction-point algorithm and prints one comparison
// table: how the annex-A10 CCT mechanism stacks up against a DCQCN-style
// rate controller, plain AIMD, and the explicit `none` passthrough,
// under identical traffic and seeds.
//
//   ./table_cc_compare [--full] [--seed=S] [--algos=a,b,...] [--csv=path]

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "store_opt.hpp"
#include "ccalg/registry.hpp"
#include "sim/cli.hpp"
#include "sim/experiment.hpp"

namespace {
std::vector<std::string> split_csv_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace ibsim;
  if (bench::handle_version_flag(argc, argv, "table_cc_compare")) return 0;

  sim::Cli cli("table_cc_compare: the congestion-tree taxonomy per CC algorithm");
  cli.add_flag("full", "paper-scale simulated time (also IBSIM_FULL=1)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("algos", "", "comma-separated algorithm subset (default: all registered)");
  cli.add_string("csv", "", "also write results as CSV to this path");
  bench::add_store_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto& registry = ccalg::CcAlgorithmRegistry::instance();
  const std::vector<std::string> algos = split_csv_list(cli.get_string("algos"));
  for (const std::string& algo : algos) {
    if (!registry.contains(algo)) {
      std::fprintf(stderr, "unknown cc algorithm '%s' (valid: %s)\n", algo.c_str(),
                   registry.names_joined().c_str());
      return 2;
    }
  }

  sim::ExperimentPreset preset = sim::ExperimentPreset::from_env(cli.flag("full"));
  preset.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  preset.base.result_store = cli.get_string("result-store");

  std::printf("CC algorithm comparison (Gbps), %d-node folded Clos, seed %llu\n\n",
              preset.base.clos.node_count(),
              static_cast<unsigned long long>(preset.base.seed));

  const sim::CcCompareResult result = sim::run_cc_compare(preset, algos);
  analysis::TextTable table = sim::format_cc_compare(result);
  table.print();

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
