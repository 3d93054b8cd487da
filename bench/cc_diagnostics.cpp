// Deep-dive diagnostic of the CC equilibrium on the Table II scenario:
// CCTI distributions of contributors and victims, where FECN marks
// happen (HCA-facing root ports vs fabric ports), victim suppressions,
// and residual queue depths. Used to understand *why* a parameter set
// behaves the way the other benches report.
//
//   ./cc_diagnostics [--sim-ms=N] [--warmup-ms=N] [--increase=N]
//                    [--timer=N] [--seed=S] [--nodes648]

#include <algorithm>
#include <cstdio>
#include <map>

#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"
#include "traffic/scenario.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("cc_diagnostics: CC equilibrium introspection (silent trees)");
  cli.add_int("sim-ms", 6, "simulated milliseconds");
  cli.add_int("warmup-ms", 3, "warmup milliseconds");
  cli.add_int("increase", 4, "CCTI_Increase");
  cli.add_int("timer", 38, "CCTI_Timer (1.024us units)");
  cli.add_int("seed", 1, "random seed");
  cli.add_flag("nodes648", "full 648-node fabric (default: 216 nodes)");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = cli.flag("nodes648") ? topo::FoldedClosParams::sun_dcs_648()
                                     : topo::FoldedClosParams::scaled(18, 9, 12);
  config.sim_time = cli.get_int("sim-ms") * core::kMillisecond;
  config.warmup = cli.get_int("warmup-ms") * core::kMillisecond;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 8;
  std::string err = sim::apply_int_options(
      cli, {{"increase", "ccti_increase"}, {"timer", "ccti_timer"}, {"seed", "seed"}}, &config);
  if (err.empty()) err = sim::check_config(config);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }

  sim::Simulation s(config);
  const sim::SimResult r = s.run();
  std::printf("%s\n", config.describe().c_str());
  std::printf("hotspot %.3f Gb/s | non-hotspot %.3f Gb/s | total %.1f Gb/s\n",
              r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps, r.total_throughput_gbps);
  std::printf("FECN %llu | CNP %llu | BECN %llu | p99 latency %.0f us\n",
              static_cast<unsigned long long>(r.fecn_marked),
              static_cast<unsigned long long>(r.cnps_sent),
              static_cast<unsigned long long>(r.becn_received), r.p99_latency_us);

  auto& fab = s.fabric();
  auto& scen = s.scenario();

  auto print_ccti_histogram = [&](traffic::NodeRole role) {
    std::map<int, int> hist;
    int count = 0;
    for (ib::NodeId n = 0; n < fab.node_count(); ++n) {
      if (scen.role(n) != role) continue;
      ++count;
      int best = 0;
      for (ib::NodeId d = 0; d < fab.node_count(); ++d) {
        best = std::max<int>(best, fab.hca(n).cc_agent().ccti(d));
      }
      hist[best / 16]++;
    }
    std::printf("%s nodes (%d), max-CCTI histogram:", traffic::role_name(role), count);
    for (const auto& [bucket, n] : hist) {
      std::printf("  [%d-%d]: %d", bucket * 16, bucket * 16 + 15, n);
    }
    std::printf("\n");
  };
  print_ccti_histogram(traffic::NodeRole::C);
  print_ccti_histogram(traffic::NodeRole::V);

  std::uint64_t marks_to_hca = 0;
  std::uint64_t marks_fabric = 0;
  std::uint64_t victim_suppressed = 0;
  std::int64_t queued_to_hca = 0;
  std::int64_t queued_fabric = 0;
  for (std::size_t i = 0; i < fab.switch_count(); ++i) {
    auto& sw = fab.switch_at(i);
    for (std::int32_t p = 0; p < sw.n_ports(); ++p) {
      const auto& op = sw.output(p);
      if (!op.connected) continue;
      for (ib::Vl vl = 0; vl < sw.bank().n_vls(); ++vl) {
        const auto& det = sw.bank().cc(p, vl);
        (op.peer_is_hca ? marks_to_hca : marks_fabric) += det.marked();
        (op.peer_is_hca ? queued_to_hca : queued_fabric) += det.queued_bytes();
        victim_suppressed += det.victim_suppressed();
      }
    }
  }
  std::printf("marks: HCA-facing (roots) %llu | fabric %llu | victim-suppressed %llu\n",
              static_cast<unsigned long long>(marks_to_hca),
              static_cast<unsigned long long>(marks_fabric),
              static_cast<unsigned long long>(victim_suppressed));
  std::printf("residual queued bytes at end: HCA-facing %lld | fabric %lld\n",
              static_cast<long long>(queued_to_hca), static_cast<long long>(queued_fabric));
  std::printf("(a drained fabric column means the congestion trees are pruned)\n");
  return 0;
}
