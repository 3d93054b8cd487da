// The parking-lot fairness scenario from the authors' hardware study
// (Gran et al., IPDPS 2010) that motivated the paper's parameter set:
// on a chain of switches, several sources send to a sink hanging off the
// far end. Without CC, round-robin arbitration at each merge point gives
// flows joining close to the hotspot a full "lane" each while the far
// flows share one — the classic parking-lot unfairness. IB CC throttles
// every contributor to its fair share.
//
//   ./parking_lot [--switches=N] [--sim-time-us=T]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "core/stats.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"
#include "topo/builders.hpp"

using namespace ibsim;

namespace {

/// A fixed-destination saturating source (everything to the sink) that
/// honours the CC injection-rate delay through the flow gate.
class ToSinkSource final : public fabric::TrafficSource {
 public:
  ToSinkSource(ib::NodeId self, ib::NodeId sink, double gbps, ib::PacketArena* arena,
               const cc::FlowGate* gate)
      : self_(self), sink_(sink), gbps_(gbps), arena_(arena), gate_(gate) {}

  Poll poll(core::Time now) override {
    // Rate-budgeted like the paper's generators: at most gbps x t bytes,
    // and never ahead of the CC throttle.
    auto ready = static_cast<core::Time>(
        static_cast<double>(sent_ + ib::kMtuBytes) * 8000.0 / gbps_);
    if (gate_ != nullptr && gate_->flow_ready_at(sink_) > ready) {
      ready = gate_->flow_ready_at(sink_);
    }
    if (ready > now) return {ib::kNullPacket, ready};
    const ib::PacketHandle h = arena_->allocate();
    ib::Packet& pkt = arena_->get(h);
    pkt.src = self_;
    pkt.dst = sink_;
    pkt.bytes = ib::kMtuBytes;
    pkt.vl = ib::kDataVl;
    pkt.injected_at = now;
    sent_ += pkt.bytes;
    return {h, core::kTimeNever};
  }

 private:
  ib::NodeId self_;
  ib::NodeId sink_;
  double gbps_;
  ib::PacketArena* arena_;
  const cc::FlowGate* gate_;
  std::int64_t sent_ = 0;
};

struct RunResult {
  std::vector<double> per_source_gbps;
  double sink_gbps = 0.0;
  double jain = 0.0;
};

RunResult run(bool cc_on, std::int32_t switches, core::Time sim_time) {
  core::Scheduler sched;
  // One node per switch; the node on the last switch is the sink, every
  // other node sends to it. Traffic from switch 0 crosses the most
  // merge points.
  const topo::Topology topo = topo::linear_chain(switches, 1);
  const topo::RoutingTables routing = topo::RoutingTables::compute(topo);
  ib::CcParams cc = cc_on ? ib::CcParams::paper_table1() : ib::CcParams::disabled();
  cc.ccti_increase = 4;  // quick loop for a short demo run
  cc.ccti_timer = 38;
  const cc::CcManager ccm(cc, 128, 13.5);
  fabric::Fabric fab(topo, routing, fabric::FabricParams{}, ccm, sched);

  const ib::NodeId sink = switches - 1;
  std::vector<std::unique_ptr<ToSinkSource>> sources;
  std::vector<std::int64_t> rx_by_src(static_cast<std::size_t>(switches));

  class PerSourceObserver final : public fabric::SinkObserver {
   public:
    explicit PerSourceObserver(std::vector<std::int64_t>* by_src) : by_src_(by_src) {}
    void on_delivered(ib::NodeId, const ib::Packet& pkt, core::Time) override {
      (*by_src_)[static_cast<std::size_t>(pkt.src)] += pkt.bytes;
    }

   private:
    std::vector<std::int64_t>* by_src_;
  } observer(&rx_by_src);

  for (ib::NodeId n = 0; n < switches - 1; ++n) {
    const cc::FlowGate* gate = cc_on ? &fab.hca(n).cc_agent() : nullptr;
    sources.push_back(std::make_unique<ToSinkSource>(n, sink, 13.5, &fab.arena(), gate));
    fab.hca(n).attach_source(sources.back().get());
  }
  fab.hca(sink).attach_observer(&observer);

  fab.start(sched);
  const core::Time warmup = sim_time / 2;
  sched.run_until(warmup);
  std::fill(rx_by_src.begin(), rx_by_src.end(), 0);
  sched.run_until(sim_time);

  RunResult result;
  for (ib::NodeId n = 0; n < switches - 1; ++n) {
    result.per_source_gbps.push_back(
        core::rate_gbps(rx_by_src[static_cast<std::size_t>(n)], sim_time - warmup));
    result.sink_gbps += result.per_source_gbps.back();
  }
  result.jain = core::jain_fairness(result.per_source_gbps);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Cli cli("parking_lot: chain-topology fairness with and without IB CC");
  cli.add_int("switches", 5, "switches in the chain (sources = switches - 1)");
  cli.add_int("sim-time-us", 30000, "simulated time in microseconds");
  if (!cli.parse(argc, argv)) return 0;

  // The chain's fields of a SimConfig hold the flags, so the field table
  // rejects a value they cannot hold.
  sim::SimConfig chain;
  std::string err = sim::apply_int_options(
      cli, {{"switches", "chain_switches"}, {"sim-time-us", "sim_time_us"}}, &chain);
  if (err.empty() && chain.chain_switches < 2) {
    err = "--switches must be at least 2: a source and the sink";
  }
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  const std::int32_t switches = chain.chain_switches;
  const core::Time sim_time = chain.sim_time;

  std::printf("parking lot: %d sources merging towards one sink along a chain\n\n",
              switches - 1);

  analysis::TextTable table({"Source (hops from sink)", "CC off Gb/s", "CC on Gb/s"});
  const RunResult off = run(false, switches, sim_time);
  const RunResult on = run(true, switches, sim_time);
  for (std::size_t i = 0; i < off.per_source_gbps.size(); ++i) {
    table.add_row({"source " + std::to_string(i) + " (" +
                       std::to_string(off.per_source_gbps.size() - i) + " merges)",
                   analysis::fmt(off.per_source_gbps[i]), analysis::fmt(on.per_source_gbps[i])});
  }
  table.add_row({"sink total", analysis::fmt(off.sink_gbps), analysis::fmt(on.sink_gbps)});
  table.add_row({"Jain fairness", analysis::fmt(off.jain), analysis::fmt(on.jain)});
  table.print();

  std::printf("\nWithout CC the source nearest the sink grabs the biggest share\n"
              "(parking-lot problem); enabling CC drives Jain towards 1.0.\n");
  return 0;
}
