// General-purpose simulation runner: every SimConfig key exposed on the
// command line, results as a table, and a counter time series CSV with
// --counters-csv=F --telemetry-sample-us=N. This is
// the "use the library without writing C++" entry point for downstream
// users.
//
//   ./simulate --topology=clos --clos-leaves=12 --clos-spines=6
//              --clos-nodes-per-leaf=6 --fraction-b=1 --p-percent=60
//              --hotspots=4 --sim-time-us=10000
//
// Run ./simulate --help for the full knob list.

#include <cstdio>
#include <string>

#include "ccalg/registry.hpp"
#include "core/log.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"
#include "telemetry/summary.hpp"
#include "workload/registry.hpp"

namespace {

/// The headline result block — shared by the live telemetry run and the
/// sweep-pool run, whose result may come from the store (the store's
/// contract is that a cached run is indistinguishable from a fresh one).
void print_results(const ibsim::sim::SimConfig& config, const ibsim::sim::SimResult& r) {
  using ibsim::core::kMicrosecond;
  using ibsim::core::kTimeNever;
  std::printf("\nresults over the measurement window:\n");
  std::printf("  avg receive rate, hotspots      %10.3f Gb/s\n", r.hotspot_rcv_gbps);
  std::printf("  avg receive rate, non-hotspots  %10.3f Gb/s\n", r.non_hotspot_rcv_gbps);
  std::printf("  avg receive rate, all nodes     %10.3f Gb/s\n", r.all_rcv_gbps);
  std::printf("  total network throughput        %10.1f Gb/s\n", r.total_throughput_gbps);
  std::printf("  Jain fairness (non-hotspots)    %10.4f\n", r.jain_non_hotspot);
  std::printf("  median / p99 packet latency     %7.1f / %.1f us\n", r.median_latency_us,
              r.p99_latency_us);
  std::printf("  FECN marked / CNPs / BECNs      %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.fecn_marked),
              static_cast<unsigned long long>(r.cnps_sent),
              static_cast<unsigned long long>(r.becn_received));
  std::printf("  events executed                 %llu\n",
              static_cast<unsigned long long>(r.events_executed));

  if (r.workload.ran) {
    std::printf("\napplication workload (%s):\n", config.workload.name.c_str());
    std::printf("  messages completed              %llu / %llu\n",
                static_cast<unsigned long long>(r.workload.messages_completed),
                static_cast<unsigned long long>(r.workload.messages_total));
    if (r.workload.completed) {
      std::printf("  makespan                        %10.1f us\n", r.workload.makespan_us());
    } else {
      std::printf("  makespan                        did not finish within sim-time\n");
    }
    std::printf("  per-phase finish times (us):");
    for (std::size_t p = 0; p < r.workload.phase_finish.size(); ++p) {
      const ibsim::core::Time t = r.workload.phase_finish[p];
      if (t == kTimeNever) {
        std::printf(" -");
      } else {
        std::printf(" %.1f", static_cast<double>(t) / kMicrosecond);
      }
    }
    std::printf("\n  per-rank finish times (us):");
    for (std::size_t rr = 0; rr < r.workload.rank_finish.size(); ++rr) {
      const ibsim::core::Time t = r.workload.rank_finish[rr];
      if (t == kTimeNever) {
        std::printf(" -");
      } else {
        std::printf(" %.1f", static_cast<double>(t) / kMicrosecond);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibsim;

  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--version") {
      std::printf("%s\n", store::version_line("simulate").c_str());
      return 0;
    }
  }

  sim::Cli cli(
      "simulate: run one InfiniBand CC simulation from the command line.\n"
      "Every config-file key is also a flag, spelled with '-' for '_'; a flag\n"
      "given here overrides --config. Without flags the run is SimConfig's\n"
      "default: the 648-node DCS fabric.");
  cli.add_string("config", "", "key = value config file, applied before the flags");
  cli.add_string("ft3-preset", "",
                 "canned fat-tree3 shape, 2k | 10k (applied after --config; the ft3-* "
                 "flags refine it)");
  cli.add_flag("list-cc-algos", "print the registered CC algorithms and exit");
  cli.add_flag("list-workloads", "print the registered workloads and exit");
  cli.add_flag("version", "print the code version stamp and exit");
  cli.add_flag("verbose", "info-level logging");
  sim::add_config_flags(&cli, sim::SimConfig{});
  if (!cli.parse(argc, argv)) return 0;

  if (cli.flag("verbose")) core::Log::set_level(core::LogLevel::Info);

  if (cli.flag("list-cc-algos") || cli.get_string("cc-algo") == "help") {
    std::printf("registered congestion-control algorithms:\n");
    for (const std::string& name : ccalg::CcAlgorithmRegistry::instance().names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }
  if (cli.flag("list-workloads") || cli.get_string("workload") == "help") {
    std::printf("registered workloads:\n");
    for (const std::string& name : workload::WorkloadRegistry::instance().names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("  file (DSL file via --workload-file)\n");
    return 0;
  }

  sim::SimConfig config;
  if (!cli.get_string("config").empty()) {
    const std::string err = sim::apply_config_file(cli.get_string("config"), &config);
    if (!err.empty()) {
      std::fprintf(stderr, "config error: %s\n", err.c_str());
      return 2;
    }
  }
  const std::string preset = cli.get_string("ft3-preset");
  if (preset == "2k") {
    config.fat_tree3 = topo::FatTree3Params::scale_2k();
  } else if (preset == "10k") {
    config.fat_tree3 = topo::FatTree3Params::scale_10k();
  } else if (!preset.empty()) {
    std::fprintf(stderr, "unknown ft3 preset '%s' (valid: 2k | 10k)\n", preset.c_str());
    return 2;
  }
  if (const std::string err = sim::apply_config_flags(cli, &config); !err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }

  if (const std::string err = sim::check_config(config); !err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }

  // Telemetry runs print the live counter registry, so they simulate
  // here and never touch the store; every other run goes through the
  // sweep pool, which serves it from the store or publishes it there.
  const bool live = config.telemetry.active();
  if (live && !config.result_store.empty()) {
    std::fprintf(stderr, "result store bypassed: telemetry output needs a live run\n");
  }

  std::printf("%s\n", config.describe().c_str());

  if (!live) {
    print_results(config, sim::run_parallel({config}, 1).front());
    if (!config.result_store.empty()) {
      std::fprintf(
          stderr, "%s\n",
          store::StoreRegistry::instance().open(config.result_store)->stats_line().c_str());
    }
    return 0;
  }

  sim::Simulation simulation(config);
  print_results(config, simulation.run());
  const telemetry::Telemetry& t = *simulation.telemetry();
  std::printf("\n%s", telemetry::counters_table(t.registry(), t.detailed()).render().c_str());
  if (t.tracer() != nullptr) {
    std::printf("trace: %s -> %s\n", telemetry::describe_tracer(*t.tracer()).c_str(),
                config.telemetry.trace_path.c_str());
  }
  if (!config.telemetry.counters_csv.empty()) {
    std::printf("counters CSV written to %s\n", config.telemetry.counters_csv.c_str());
  }
  return 0;
}
