// Extension experiment (not a paper figure): link frequency/voltage
// scaling as a congestion cause. The paper's introduction lists
// "conducting link frequency/voltage scaling (lowering the link speed in
// order to save power)" among the events that create congestion; this
// bench slows a single spine down-link of the fat-tree under an
// otherwise uncongested uniform load and measures how far the resulting
// congestion tree spreads — and whether IB CC can undo the damage. (It
// cannot, for a quantifiable reason printed below: marking bandwidth is
// bounded by the slow link itself.)
//
//   ./ext_link_scaling [--full] [--seed=S]

#include <cstdio>

#include "analysis/table.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("ext_link_scaling: one slowed link under uniform traffic");
  cli.add_flag("full", "longer measurement window");
  sim::add_config_flags(&cli, sim::SimConfig{}, {"seed"});
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig base;
  base.topology = sim::TopologyKind::FoldedClos;
  base.clos = topo::FoldedClosParams::scaled(12, 6, 6);  // 72 nodes
  base.sim_time = (cli.flag("full") ? 30 : 10) * core::kMillisecond;
  base.warmup = base.sim_time / 2;
  sim::exit_on_error(sim::apply_config_flags(cli, &base));
  base.cc.ccti_increase = 4;
  base.cc.ccti_timer = 38;
  // Uniform traffic at 60% load: without link scaling this fabric is
  // comfortably congestion-free, so everything that goes wrong below is
  // caused by the one scaled link.
  base.scenario.fraction_b = 1.0;
  base.scenario.p = 0.0;
  base.scenario.n_hotspots = 0;
  base.scenario.capacity_gbps = 8.0;

  std::printf("fabric: %d nodes; scaling spine0's down-link to leaf0\n\n",
              base.node_count());

  analysis::TextTable table(
      {"Scaled link rate", "CC", "Avg rcv Gbps", "Total Gbps", "FECN marks"});

  for (const double scaled_gbps : {16.0, 8.0, 4.0, 2.0}) {
    for (const bool cc_on : {false, true}) {
      sim::SimConfig config = base;
      config.cc.enabled = cc_on;
      sim::Simulation simulation(config);
      // Spine 0 is switch index `leaves`; its port l goes down to leaf l.
      auto& spine0 = simulation.fabric().switch_at(
          static_cast<std::size_t>(config.clos.leaves));
      simulation.fabric().set_link_rate(spine0.device_id(), /*port=*/0, scaled_gbps);
      const sim::SimResult r = simulation.run();
      table.add_row({cc_on ? "" : analysis::fmt(scaled_gbps, 0) + " Gb/s",
                     cc_on ? "on" : "off", analysis::fmt(r.all_rcv_gbps),
                     analysis::fmt(r.total_throughput_gbps, 1),
                     std::to_string(r.fecn_marked)});
    }
  }
  table.print();
  std::printf(
      "\nFinding: a slowed link under many fine-grained uniform flows is a\n"
      "regime the FECN/BECN loop cannot fix: the scaled link can only mark\n"
      "packets at its own (low) rate, so each of the hundreds of crossing\n"
      "flows receives BECNs far more slowly than its CCTI decays, and no\n"
      "throttle accumulates. CC neither helps nor harms here — the loss is\n"
      "borne by HOL spreading, unlike the few-fat-flows hotspot scenarios\n"
      "where per-flow BECN supply is plentiful. (Compare the paper's\n"
      "endpoint hotspots, where CC wins up to seventeen-fold.)\n");
  return 0;
}
