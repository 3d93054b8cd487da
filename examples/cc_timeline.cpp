// Watch a congestion tree live: eight contributors pile onto one hotspot
// from t=0; the counter CSV records how the tree's queued bytes grow,
// FECN marking kicks in, CCTIs climb, the tree is pruned back, and —
// after the contributors stop — how the CCTI_Timer recovers the flows.
// The section III narrative ("branches grow and get pruned") as data.
//
//   ./cc_timeline [--telemetry-sample-us=N] [--sim-time-us=T] [--seed=S]
//                 [--counters-csv=path] [--cc-enabled=0]
//
// The table is read back from the run's counter CSV (one column per
// registry instrument), so it shows what any CSV reader would: receive
// rates are differences of the cumulative sink.rcv_bytes.* columns.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

namespace {

/// A counter CSV read back: column name -> one value per row.
using Columns = std::map<std::string, std::vector<double>>;

Columns read_csv(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> names;
  if (std::getline(in, line)) {
    std::istringstream header(line);
    for (std::string name; std::getline(header, name, ',');) names.push_back(name);
  }
  Columns columns;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string cell;
    for (std::size_t i = 0; i < names.size() && std::getline(row, cell, ','); ++i) {
      columns[names[i]].push_back(std::stod(cell));
    }
  }
  return columns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(8, 4, 4);  // 32 nodes
  config.sim_time = 6000 * core::kMicrosecond;
  config.warmup = 0;  // the transient IS the experiment
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.75;
  config.scenario.n_hotspots = 1;

  sim::Cli cli("cc_timeline: life cycle of a congestion tree");
  sim::add_config_flags(
      &cli, config,
      {"telemetry_sample_us", "sim_time_us", "seed", "cc_enabled", "counters_csv"});
  if (!cli.parse(argc, argv)) return 0;
  sim::exit_on_error(sim::apply_config_flags(cli, &config));
  // Without --counters-csv the run's CSV goes to a temporary file.
  const std::string csv = config.telemetry.counters_csv;
  if (csv.empty()) {
    config.telemetry.counters_csv = (std::filesystem::temp_directory_path() /
                                     ("cc_timeline." + std::to_string(::getpid()) + ".csv"))
                                        .string();
  }
  sim::exit_on_error(sim::check_config(config));

  std::printf("congestion-tree timeline: %d nodes, 1 hotspot, CC %s\n\n",
              config.clos.node_count(), config.cc.enabled ? "on" : "off");

  const sim::SimResult result = sim::run_sim(config);
  Columns col = read_csv(config.telemetry.counters_csv);
  if (csv.empty()) std::filesystem::remove(config.telemetry.counters_csv);
  const std::size_t rows = col["t_us"].size();
  if (rows == 0) {
    std::fprintf(stderr, "error: no samples in '%s'\n", config.telemetry.counters_csv.c_str());
    return 1;
  }

  // Cumulative columns start from zero at t = 0, where the sampler is
  // installed; a row's rates cover the interval since the row before.
  const auto delta = [&col](const char* name, std::size_t i) {
    const std::vector<double>& c = col[name];
    return c[i] - (i > 0 ? c[i - 1] : 0.0);
  };
  const auto n_hot = static_cast<std::int32_t>(col["sink.hotspot_nodes"][0]);
  const std::int32_t n_cold = config.node_count() - n_hot;
  std::printf("%10s %10s %10s %10s %12s %9s %9s %8s\n", "t (us)", "total", "hot/node",
              "cold/node", "queued (KB)", "throttled", "meanCCTI", "FECN");
  constexpr std::size_t kMaxRows = 40;
  const std::size_t stride = rows > kMaxRows ? rows / kMaxRows : 1;
  for (std::size_t i = 0; i < rows; i += stride) {
    const auto span = static_cast<core::Time>(std::llround(delta("t_us", i) * core::kMicrosecond));
    const auto hot = static_cast<std::int64_t>(delta("sink.rcv_bytes.hotspot", i));
    const auto cold = static_cast<std::int64_t>(delta("sink.rcv_bytes.non_hotspot", i));
    const auto flows = static_cast<std::int32_t>(col["fabric.active_cc_flows"][i]);
    std::printf("%10.0f %10.1f %10.2f %10.2f %12.1f %9d %9.1f %8.0f\n", col["t_us"][i],
                core::rate_gbps(hot + cold, span),
                n_hot > 0 ? core::rate_gbps(hot, span) / n_hot : 0.0,
                n_cold > 0 ? core::rate_gbps(cold, span) / n_cold : 0.0,
                col["fabric.queued_bytes"][i] / 1024.0, flows,
                flows > 0 ? col["fabric.ccti_sum"][i] / flows : 0.0,
                delta("fabric.fecn_marked", i));
  }
  const std::vector<double>& queued = col["fabric.queued_bytes"];
  std::printf("\npeak congestion-tree size: %.1f KB queued | final result: "
              "hotspot %.2f Gb/s, victims %.2f Gb/s\n",
              *std::max_element(queued.begin(), queued.end()) / 1024.0,
              result.hotspot_rcv_gbps, result.non_hotspot_rcv_gbps);
  if (!csv.empty()) std::printf("counters CSV written to %s\n", csv.c_str());
  return 0;
}
