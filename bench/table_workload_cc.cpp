// Crosses the canned application workloads with every registered
// reaction-point algorithm on a folded-Clos fabric and prints one table:
// completion time (makespan) per workload/algorithm pair plus the
// victim-flow slowdown — how much the uniform background senders lose
// while the application runs, relative to an idle-application baseline
// under the same algorithm.
//
//   ./table_workload_cc [--full] [--seed=S] [--workloads=a,b] [--algos=a,b]
//                       [--threads=N] [--csv=path]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "store_opt.hpp"
#include "ccalg/registry.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "workload/registry.hpp"

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
  if (bench::handle_version_flag(argc, argv, "table_workload_cc")) return 0;

  sim::Cli cli("table_workload_cc: application completion time per CC algorithm");
  cli.add_flag("full", "paper-scale messages and windows (also IBSIM_FULL=1)");
  cli.add_int("seed", 1, "random seed");
  cli.add_string("workloads", "", "comma-separated workload subset (default: all canned)");
  cli.add_string("algos", "", "comma-separated algorithm subset (default: all registered)");
  cli.add_int("threads", 0, "sweep worker threads (0 = IBSIM_THREADS or hardware)");
  cli.add_string("csv", "", "also write results as CSV to this path");
  bench::add_store_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto& wl_registry = workload::WorkloadRegistry::instance();
  std::vector<std::string> workloads = split_csv_list(cli.get_string("workloads"));
  for (const std::string& name : workloads) {
    if (!wl_registry.contains(name)) {
      std::fprintf(stderr, "unknown workload '%s' (valid: %s)\n", name.c_str(),
                   wl_registry.names_joined().c_str());
      return 2;
    }
  }
  if (workloads.empty()) {
    for (const std::string& name : wl_registry.names()) {
      if (name != "idle") workloads.push_back(name);
    }
  }

  const auto& cc_registry = ccalg::CcAlgorithmRegistry::instance();
  std::vector<std::string> algos = split_csv_list(cli.get_string("algos"));
  for (const std::string& algo : algos) {
    if (!cc_registry.contains(algo)) {
      std::fprintf(stderr, "unknown cc algorithm '%s' (valid: %s)\n", algo.c_str(),
                   cc_registry.names_joined().c_str());
      return 2;
    }
  }
  if (algos.empty()) algos = cc_registry.names();

  const char* env_full = std::getenv("IBSIM_FULL");
  const bool full = cli.flag("full") || (env_full != nullptr && env_full[0] == '1');

  // A mid-size folded Clos: large enough for cross-leaf contention,
  // small enough that the full grid finishes in seconds in quick mode.
  sim::SimConfig base;
  base.topology = sim::TopologyKind::FoldedClos;
  base.clos = topo::FoldedClosParams::scaled(12, 6, 6);
  if (const std::string err =
          sim::apply_int_options(cli, {{"seed", "seed"}, {"threads", "threads"}}, &base);
      !err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  base.warmup = 0;
  base.workload.ranks = 24;
  base.workload.message_bytes = full ? 128 * 1024 : 32 * 1024;
  base.workload.iterations = full ? 4 : 2;
  base.sim_time = full ? 60 * core::kMillisecond : 15 * core::kMillisecond;
  base.result_store = cli.get_string("result-store");

  // Grid: for each algorithm an idle baseline (victims only) followed by
  // every workload. Index layout: algo a occupies the contiguous block
  // [a * (1 + W), (a + 1) * (1 + W)).
  std::vector<sim::SimConfig> configs;
  for (const std::string& algo : algos) {
    sim::SimConfig cfg = base;
    cfg.cc_algo = algo;
    cfg.cc.enabled = (algo != "none");
    cfg.workload.name = "idle";
    configs.push_back(cfg);
    for (const std::string& name : workloads) {
      cfg.workload.name = name;
      configs.push_back(cfg);
    }
  }

  std::printf("workload x CC algorithm, %d-node folded Clos, %d ranks, %lld B msgs x%lld, seed %llu\n\n",
              base.clos.node_count(), base.workload.ranks,
              static_cast<long long>(base.workload.message_bytes),
              static_cast<long long>(base.workload.iterations),
              static_cast<unsigned long long>(base.seed));

  const std::vector<sim::SimResult> results =
      sim::run_parallel(configs, base.threads);

  analysis::TextTable table(
      {"workload", "algorithm", "makespan_us", "completed", "victim_gbps", "victim_slowdown"});
  const std::size_t stride = 1 + workloads.size();
  for (std::size_t a = 0; a < algos.size(); ++a) {
    const sim::SimResult& idle = results[a * stride];
    const double baseline_victim = idle.non_hotspot_rcv_gbps;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const sim::SimResult& r = results[a * stride + 1 + w];
      const double victim = r.non_hotspot_rcv_gbps;
      const double slowdown = victim > 0.0 ? baseline_victim / victim : 0.0;
      table.add_row({workloads[w], algos[a], analysis::fmt(r.workload.makespan_us(), 1),
                     r.workload.completed ? "yes" : "NO", analysis::fmt(victim, 3),
                     analysis::fmt(slowdown, 3)});
    }
  }
  table.print();
  std::printf("\nvictim_slowdown = idle-baseline victim Gbps / victim Gbps under the workload\n");

  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    FILE* f = std::fopen(csv.c_str(), "w");
    if (f != nullptr) {
      std::fputs(table.render_csv().c_str(), f);
      std::fclose(f);
      std::printf("CSV written to %s\n", csv.c_str());
    }
  }
  bench::report_store(base.result_store);
  return 0;
}
