// google-benchmark microbenchmarks for the simulator substrate: the
// event scheduler, RNG, packet pool/queues, CCT arithmetic, routing
// table construction, and end-to-end simulation event throughput. These
// guard the performance budget that makes the full 648-node figure
// reproductions feasible on a laptop.

#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "ib/cct.hpp"
#include "ib/packet.hpp"
#include "sim/simulation.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/destination.hpp"

namespace {

using namespace ibsim;

class NullHandler final : public core::EventHandler {
 public:
  void on_event(core::Scheduler&, const core::Event&) override {}
};

void BM_SchedulerPushPop(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  core::Scheduler sched;
  NullHandler handler;
  core::Rng rng(1);
  // Pre-fill to the working depth typical of a busy fabric.
  core::Time horizon = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    horizon += static_cast<core::Time>(rng.next_below(1000) + 1);
    sched.schedule_at(horizon, &handler, 0);
  }
  for (auto _ : state) {
    sched.schedule_at(horizon + static_cast<core::Time>(rng.next_below(100000) + 1),
                      &handler, 0);
    benchmark::DoNotOptimize(sched.pending());
    if (sched.pending() > 2 * depth) {
      state.PauseTiming();
      sched.clear();
      horizon = sched.now();
      for (std::size_t i = 0; i < depth; ++i) {
        horizon += static_cast<core::Time>(rng.next_below(1000) + 1);
        sched.schedule_at(horizon, &handler, 0);
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPushPop)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SchedulerChurn(benchmark::State& state) {
  // Steady-state schedule+execute churn at a given queue depth.
  const auto depth = static_cast<std::size_t>(state.range(0));
  class Churn final : public core::EventHandler {
   public:
    explicit Churn(core::Rng rng) : rng_(rng) {}
    void on_event(core::Scheduler& sched, const core::Event&) override {
      sched.schedule_in(static_cast<core::Time>(rng_.next_below(1000) + 1), this, 0);
    }

   private:
    core::Rng rng_;
  };
  core::Scheduler sched;
  Churn churn(core::Rng(7));
  for (std::size_t i = 0; i < depth; ++i) sched.schedule_at(static_cast<core::Time>(i), &churn, 0);
  std::uint64_t done = 0;
  for (auto _ : state) {
    done += sched.run_until(sched.now() + 1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
}
BENCHMARK(BM_SchedulerChurn)->Arg(1024)->Arg(16384);

void BM_RngDraw(benchmark::State& state) {
  core::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(647));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraw);

void BM_UniformDestination(benchmark::State& state) {
  core::Rng rng(5);
  traffic::UniformDestination dist(17, 648);
  for (auto _ : state) benchmark::DoNotOptimize(dist.draw(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniformDestination);

void BM_PacketArenaCycle(benchmark::State& state) {
  ib::PacketArena arena;
  arena.reserve(16);
  for (auto _ : state) {
    const ib::PacketHandle h = arena.allocate();
    arena.get(h).bytes = ib::kMtuBytes;
    arena.release(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketArenaCycle);

void BM_PacketQueueCycle(benchmark::State& state) {
  ib::PacketArena arena;
  arena.reserve(64);
  ib::PacketQueue queue;
  std::vector<ib::PacketHandle> pkts;
  for (int i = 0; i < 64; ++i) pkts.push_back(arena.allocate());
  std::size_t next = 0;
  for (auto _ : state) {
    queue.push_back(arena, pkts[next]);
    benchmark::DoNotOptimize(queue.pop_front(arena));
    next = (next + 1) % pkts.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketQueueCycle);

void BM_CctIrdDelay(benchmark::State& state) {
  ib::CongestionControlTable cct(128, 13.5);
  cct.populate_geometric(1.05);
  std::size_t ccti = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cct.ird_delay(ccti, ib::kMtuBytes));
    ccti = (ccti + 17) % 128;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CctIrdDelay);

void BM_BuildSunDcs648(benchmark::State& state) {
  for (auto _ : state) {
    const topo::Topology topo = topo::folded_clos(topo::FoldedClosParams::sun_dcs_648());
    benchmark::DoNotOptimize(topo.node_count());
  }
}
BENCHMARK(BM_BuildSunDcs648);

void BM_RoutingTablesSunDcs648(benchmark::State& state) {
  const topo::Topology topo = topo::folded_clos(topo::FoldedClosParams::sun_dcs_648());
  for (auto _ : state) {
    const topo::RoutingTables rt = topo::RoutingTables::compute(topo);
    benchmark::DoNotOptimize(rt.out_port(topo.switches()[0], 647));
  }
}
BENCHMARK(BM_RoutingTablesSunDcs648);

void simulation_event_throughput(benchmark::State& state, bool fast_path) {
  // End-to-end events/second of a congested 72-node fabric — the number
  // the paper-figure wall-clock estimates scale from. Items processed
  // counts *executed* events, so the fast-path variant reports fewer
  // items per iteration but less wall per iteration; compare the
  // per-iteration times, not items/sec, across the fast/slow pair.
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::SimConfig config;
    config.topology = sim::TopologyKind::FoldedClos;
    config.clos = topo::FoldedClosParams::scaled(12, 6, 6);
    config.sim_time = 500 * core::kMicrosecond;
    config.warmup = 0;
    config.cc.ccti_increase = 4;
    config.cc.ccti_timer = 38;
    config.scenario.fraction_b = 0.0;
    config.scenario.fraction_c_of_rest = 0.8;
    config.scenario.n_hotspots = 2;
    config.fabric.fast_path = fast_path;
    const sim::SimResult r = sim::run_sim(config);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.total_throughput_gbps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_SimulationEventThroughput(benchmark::State& state) {
  simulation_event_throughput(state, /*fast_path=*/true);
}
BENCHMARK(BM_SimulationEventThroughput)->Unit(benchmark::kMillisecond);

void BM_SimulationEventThroughputSlowPath(benchmark::State& state) {
  // Reference one-event-per-action fabric chain (fabric_fast_path off):
  // the per-iteration wall gap against BM_SimulationEventThroughput is
  // the lazy-wakeup/coalescing win on this host.
  simulation_event_throughput(state, /*fast_path=*/false);
}
BENCHMARK(BM_SimulationEventThroughputSlowPath)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
