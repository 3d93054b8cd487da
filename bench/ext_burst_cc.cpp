// Extension experiment (not a paper figure): bursty hotspots. The
// paper's introduction names "network burstiness" as a congestion cause;
// here a group of on/off sources all burst towards the same destination
// with exponential on/off phases, so short-lived congestion trees appear
// whenever enough bursts overlap. Sweeps the duty cycle and reports how
// much of the victims' throughput IB CC recovers — the transient cousin
// of the paper's silent forest.
//
//   ./ext_burst_cc [--full] [--seed=S]

#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/table.hpp"
#include "cc/cc_manager.hpp"
#include "sim/cli.hpp"
#include "sim/simulation.hpp"
#include "topo/builders.hpp"
#include "traffic/burst.hpp"
#include "traffic/generator.hpp"

namespace {

using namespace ibsim;

struct Outcome {
  double victim_gbps = 0.0;
  double hotspot_gbps = 0.0;
  std::uint64_t fecn = 0;
};

Outcome run_case(double duty, bool cc_on, core::Time sim_time, std::uint64_t seed) {
  core::Scheduler sched;
  const topo::Topology topo = topo::folded_clos(topo::FoldedClosParams::scaled(8, 4, 4));
  const topo::RoutingTables routing = topo::RoutingTables::compute(topo);
  ib::CcParams cc = cc_on ? ib::CcParams::paper_table1() : ib::CcParams::disabled();
  cc.ccti_increase = 4;
  cc.ccti_timer = 38;
  const cc::CcManager ccm(cc, 128, 13.5);
  fabric::Fabric fab(topo, routing, fabric::FabricParams{}, ccm, sched);

  const std::int32_t n = topo.node_count();
  const ib::NodeId hotspot = n - 1;
  core::Rng rng(seed);

  // Half the nodes are bursty contributors to the hotspot; the rest send
  // steady uniform traffic (the potential victims).
  std::vector<std::unique_ptr<fabric::TrafficSource>> sources;
  for (ib::NodeId node = 0; node < n - 1; ++node) {
    const cc::FlowGate* gate = cc_on ? &fab.hca(node).cc_agent() : nullptr;
    if (node % 2 == 0) {
      traffic::BurstParams params;
      params.fixed_destination = true;
      params.destination = hotspot;
      params.mean_on = 100 * core::kMicrosecond;
      // duty = on / (on + off)  =>  off = on (1 - duty) / duty.
      params.mean_off = static_cast<core::Time>(
          static_cast<double>(params.mean_on) * (1.0 - duty) / duty);
      sources.push_back(std::make_unique<traffic::BurstGenerator>(
          node, n, params, gate, &fab.arena(), rng.fork("burst", node)));
    } else {
      traffic::BNodeParams params;
      params.p = 0.0;  // pure uniform
      sources.push_back(std::make_unique<traffic::BNodeGenerator>(
          node, n, params, nullptr, gate, &fab.arena(), rng.fork("gen", node)));
    }
    fab.hca(node).attach_source(sources.back().get());
  }

  fab.start(sched);
  // Receive rates over the rest of the run, from each HCA's own count:
  // the window is the configured one, not the span between the last
  // events before its ends.
  const core::Time window_start = sim_time / 4;
  sched.run_until(window_start);
  std::vector<std::int64_t> base(static_cast<std::size_t>(n));
  for (ib::NodeId node = 0; node < n; ++node) {
    base[static_cast<std::size_t>(node)] = fab.hca(node).delivered_bytes();
  }
  sched.run_until(sim_time);
  const auto gbps = [&](ib::NodeId node) {
    return core::rate_gbps(fab.hca(node).delivered_bytes() - base[static_cast<std::size_t>(node)],
                           sim_time - window_start);
  };

  Outcome outcome;
  outcome.hotspot_gbps = gbps(hotspot);
  for (ib::NodeId node = 0; node < n - 1; ++node) outcome.victim_gbps += gbps(node);
  outcome.victim_gbps /= static_cast<double>(n - 1);
  outcome.fecn = fab.total_fecn_marked();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Cli cli("ext_burst_cc: overlapping bursts to one destination");
  cli.add_flag("full", "longer measurement window");
  cli.add_int("seed", 1, "random seed");
  if (!cli.parse(argc, argv)) return 0;
  const core::Time sim_time = (cli.flag("full") ? 40 : 12) * core::kMillisecond;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("32-node fat-tree: 16 bursty sources -> 1 hotspot, 15 uniform victims\n\n");
  analysis::TextTable table({"Burst duty", "CC", "Victims Gbps", "Hotspot Gbps", "FECN"});
  for (const double duty : {0.1, 0.25, 0.5, 0.75}) {
    const Outcome off = run_case(duty, false, sim_time, seed);
    const Outcome on = run_case(duty, true, sim_time, seed);
    table.add_row({analysis::fmt(duty * 100, 0) + "%", "off",
                   analysis::fmt(off.victim_gbps), analysis::fmt(off.hotspot_gbps),
                   std::to_string(off.fecn)});
    table.add_row({"", "on", analysis::fmt(on.victim_gbps), analysis::fmt(on.hotspot_gbps),
                   std::to_string(on.fecn)});
  }
  table.print();
  std::printf("\nAt low duty the bursts rarely overlap and CC has little to do; as\n"
              "overlap grows the transient trees HOL-block the victims and CC\n"
              "recovers an increasing share — burstiness behaves like a fast\n"
              "windy forest.\n");
  return 0;
}
