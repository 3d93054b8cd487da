// Crosses the canned application workloads with every registered
// reaction-point algorithm on a folded-Clos fabric and prints one table:
// completion time (makespan) per workload/algorithm pair plus the
// victim-flow slowdown — how much the uniform background senders lose
// while the application runs, relative to an idle-application baseline
// under the same algorithm.
//
//   ./table_workload_cc [--full] [--seed=S] [--workloads=a,b] [--algos=a,b]
//                       [--threads=N] [--csv=path] [--result-store=DIR]

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "ccalg/registry.hpp"
#include "front_end.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "workload/registry.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;
  sim::Cli cli = bench::paper_cli("table_workload_cc",
                                  "application completion time per CC algorithm",
                                  "paper-scale messages and windows (also IBSIM_FULL=1)",
                                  {"seed", "threads", "result_store"});
  cli.add_string("workloads", "", "comma-separated workload subset (default: all canned)");
  cli.add_string("algos", "", "comma-separated algorithm subset (default: all registered)");
  cli.add_string("csv", "", "also write results as CSV to this path");
  if (!cli.parse(argc, argv)) return 0;

  const auto& wl_registry = workload::WorkloadRegistry::instance();
  std::vector<std::string> workloads =
      bench::registered_names(cli, "workloads", wl_registry, "workload");
  if (workloads.empty()) {
    for (const std::string& name : wl_registry.names()) {
      if (name != "idle") workloads.push_back(name);
    }
  }
  const auto& cc_registry = ccalg::CcAlgorithmRegistry::instance();
  std::vector<std::string> algos =
      bench::registered_names(cli, "algos", cc_registry, "cc algorithm");
  if (algos.empty()) algos = cc_registry.names();

  const bool full = sim::ExperimentPreset::full_scale(cli.flag("full"));

  // A mid-size folded Clos: large enough for cross-leaf contention,
  // small enough that the full grid finishes in seconds in quick mode.
  sim::SimConfig base;
  base.topology = sim::TopologyKind::FoldedClos;
  base.clos = topo::FoldedClosParams::scaled(12, 6, 6);
  sim::exit_on_error(sim::apply_config_flags(cli, &base));
  base.warmup = 0;
  base.workload.ranks = 24;
  base.workload.message_bytes = full ? 128 * 1024 : 32 * 1024;
  base.workload.iterations = full ? 4 : 2;
  base.sim_time = full ? 60 * core::kMillisecond : 15 * core::kMillisecond;

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

  bench::write_csv(cli, table);
  store::report_stats(base.result_store);
  return 0;
}
