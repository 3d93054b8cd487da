// Host-time scaling curves for the simulator's two kinds of
// parallelism: a sweep's runs per second over worker threads, and one
// run's events per second over intra-run shards. It measures time
// only; what can be counted is an exact test instead, so it holds on
// any host. FastPathEquivalence pins the busy scenarios' events,
// per-kind census and delivered bytes/packets on both fabric paths,
// ShardEquivalence pins the shard_scaling counts, AllocAudit bounds the
// 10k fat-tree's bytes per endpoint, and ResultStoreTest requires a
// warm sweep to start no simulation.
//
// Usage:
//   perf_sweep [--repeat=N] [--quick] [--threads-csv=PATH] [--shards-csv=PATH]
//
// --repeat=N          runs per cell, best-of (default 3; 1 with --quick).
// --threads-csv=PATH  write the sweep thread-scaling curve (threads,
//                     runs/sec, utilization) as CSV.
// --shards-csv=PATH   write the intra-run shard-scaling curve (shards,
//                     events/sec, speedup, cross-shard mailbox counters)
//                     as CSV.
//
// The shard_scaling cells always run; on hosts with >= 4 hardware
// threads they gate >= 1.5x events/sec at 4 shards over serial. A
// tripped gate fails the run only after the CSVs are written, so the
// numbers are left behind.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/cli.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace {

using namespace ibsim;

/// The Table II batch on the full sun_dcs_648 fabric, with the window
/// shortened so per-run setup (topology + routing + fabric build) is a
/// realistic share of the cost. Three seeds by four {C active} x {CC}
/// variants = 12 runs per sweep, each on its own snapshot.
std::vector<sim::SimConfig> make_sweep_configs(bool quick) {
  sim::ExperimentPreset preset = sim::ExperimentPreset::quick();
  preset.base.sim_time = (quick ? 10 : 15) * core::kMicrosecond;
  preset.base.warmup = 0;
  sim::SimConfig base = preset.base_config();
  base.scenario.fraction_b = 0.0;
  base.scenario.fraction_c_of_rest = 0.8;
  base.scenario.n_hotspots = 8;
  std::vector<sim::SimConfig> configs;
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const bool c_active : {false, true}) {
      for (const bool cc_on : {false, true}) {
        sim::SimConfig config = base;
        config.seed = seed;
        config.scenario.c_nodes_active = c_active;
        config.cc.enabled = cc_on;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

/// Intra-run shard-scaling scenario (DESIGN.md §15): the windy ft3-2k
/// fabric — one simulation big enough that conservative windows amortise
/// their barrier cost, the case the sharded engine exists for.
sim::SimConfig make_shard_config(bool quick) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_2k();
  config.sim_time = (quick ? 100 : 200) * core::kMicrosecond;
  config.warmup = 0;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  return config;
}

/// One shard count's best-of-`repeat` run plus the engine's cross-shard
/// traffic gauges.
struct ShardCell {
  std::int32_t shards = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::int64_t windows = 0;
  std::int64_t crossed_packets = 0;
  std::int64_t crossed_credits = 0;
  std::int64_t absorbed_events = 0;
};

/// Snapshot construction is excluded from the timed region: the number
/// under study is event-loop throughput, not topology/routing setup.
ShardCell run_shard_cell(const std::shared_ptr<const sim::RoutingSnapshot>& snapshot,
                         bool quick, std::int32_t shards, std::int64_t repeat) {
  ShardCell sc;
  sc.shards = shards;
  for (std::int64_t i = 0; i < repeat; ++i) {
    sim::SimConfig config = make_shard_config(quick);
    config.shards = shards;
    config.threads = shards;
    config.telemetry.counters = true;  // carries the sched.shard.* gauges out
    sim::Simulation simulation(config, snapshot);
    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult result = simulation.run();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    if (i == 0 || wall.count() < sc.wall_seconds) {
      sc.wall_seconds = wall.count();
      sc.events = result.events_executed;
      const auto gauge = [&](const char* name) -> std::int64_t {
        const auto it = result.counters.find(name);
        return it == result.counters.end() ? 0 : it->second;
      };
      sc.windows = gauge("sched.shard.windows");
      sc.crossed_packets = gauge("sched.shard.crossed_packets");
      sc.crossed_credits = gauge("sched.shard.crossed_credits");
      sc.absorbed_events = gauge("sched.shard.absorbed_events");
    }
  }
  sc.events_per_sec =
      sc.wall_seconds > 0.0 ? static_cast<double>(sc.events) / sc.wall_seconds : 0.0;
  return sc;
}

/// Intra-run shard-scaling curve (mirrors --threads-csv): events/sec and
/// cross-shard mailbox traffic per shard count.
bool write_shards_csv(const std::string& path, const std::vector<ShardCell>& cells) {
  std::ofstream out(path);
  if (!out) return false;
  out << "shards,events_per_sec,speedup,windows,crossed_packets,crossed_credits,"
         "absorbed_events\n";
  const double serial = cells.empty() ? 0.0 : cells.front().events_per_sec;
  for (const ShardCell& sc : cells) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%d,%.0f,%.3f,%lld,%lld,%lld,%lld\n", sc.shards,
                  sc.events_per_sec, serial > 0.0 ? sc.events_per_sec / serial : 0.0,
                  static_cast<long long>(sc.windows),
                  static_cast<long long>(sc.crossed_packets),
                  static_cast<long long>(sc.crossed_credits),
                  static_cast<long long>(sc.absorbed_events));
    out << buf;
  }
  return static_cast<bool>(out);
}

/// Sweep thread-scaling curve: runs/sec and worker utilization per
/// thread count, written as CSV for the CI artifact.
bool write_threads_csv(const std::string& path, bool quick, std::int64_t repeat) {
  std::vector<sim::SimConfig> configs = make_sweep_configs(quick);
  std::ofstream out(path);
  if (!out) return false;
  out << "threads,runs_per_sec,utilization_pct\n";
  for (const std::int32_t threads : {1, 2, 4, 8}) {
    double best_wall = 0.0;
    double utilization = 0.0;
    for (std::int64_t i = 0; i < repeat; ++i) {
      sim::SweepReport report;
      const auto start = std::chrono::steady_clock::now();
      (void)sim::run_parallel(configs, threads, &report);
      const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
      if (i == 0 || wall.count() < best_wall) {
        best_wall = wall.count();
        utilization = report.utilization();
      }
    }
    const double runs_per_sec =
        best_wall > 0.0 ? static_cast<double>(configs.size()) / best_wall : 0.0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.2f,%.1f\n", threads, runs_per_sec,
                  utilization * 100.0);
    out << buf;
    std::printf("threads=%d %10.2f runs/sec  utilization %.0f%%\n", threads, runs_per_sec,
                utilization * 100.0);
  }
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  sim::Cli cli("perf_sweep: sweep thread-scaling and intra-run shard-scaling curves");
  cli.add_int("repeat", 3, "runs per cell, best-of (1 with --quick)");
  cli.add_flag("quick", "shorter simulated windows, one run per cell");
  cli.add_string("threads-csv", "", "write the sweep thread-scaling curve as CSV", "path");
  cli.add_string("shards-csv", "", "write the shard-scaling curve as CSV", "path");
  if (!cli.parse(argc, argv)) return 0;
  const bool quick = cli.flag("quick");
  const std::int64_t repeat = quick && !cli.was_set("repeat") ? 1 : cli.get_int("repeat");
  if (repeat < 1) {
    std::fprintf(stderr, "error: '--repeat' must be at least 1\n");
    return 2;
  }
  const std::string threads_csv = cli.get_string("threads-csv");
  const std::string shards_csv = cli.get_string("shards-csv");

  // Intra-run shard scaling: the same ft3-2k simulation sliced across
  // 1/2/4/8 shards. Repeats are capped at 2: each one is a 2048-HCA run.
  std::printf("%-16s %-9s %12s %10s %14s\n", "scenario", "shards", "events", "wall_s",
              "events/sec");
  std::vector<ShardCell> shard_cells;
  const std::int64_t shard_repeat = repeat < 2 ? repeat : 2;
  const auto snapshot = sim::build_snapshot(make_shard_config(quick));
  for (const std::int32_t s : {1, 2, 4, 8}) {
    shard_cells.push_back(run_shard_cell(snapshot, quick, s, shard_repeat));
    const ShardCell& sc = shard_cells.back();
    std::printf("%-16s %-9d %12llu %10.4f %14.0f\n", "shard_scaling", sc.shards,
                static_cast<unsigned long long>(sc.events), sc.wall_seconds,
                sc.events_per_sec);
  }
  const double serial_eps = shard_cells.front().events_per_sec;
  for (std::size_t i = 1; i < shard_cells.size(); ++i) {
    const ShardCell& sc = shard_cells[i];
    std::printf("%-16s speedup shards%d/serial: %.2fx  (windows %lld, crossed pkt %lld / "
                "crd %lld, absorbed %lld)\n",
                "shard_scaling", sc.shards,
                serial_eps > 0.0 ? sc.events_per_sec / serial_eps : 0.0,
                static_cast<long long>(sc.windows), static_cast<long long>(sc.crossed_packets),
                static_cast<long long>(sc.crossed_credits),
                static_cast<long long>(sc.absorbed_events));
  }

  // The scaling gate: >= 1.5x at 4 shards. Only meaningful with >= 4
  // cores to spread the workers over; smaller runners report the curve
  // without gating on it.
  bool gate_failed = false;
  const unsigned hw = std::thread::hardware_concurrency();
  const double speedup4 = serial_eps > 0.0 ? shard_cells[2].events_per_sec / serial_eps : 0.0;
  if (hw >= 4) {
    if (speedup4 < 1.5) {
      std::fprintf(stderr, "FATAL: shard_scaling speedup at 4 shards %.2fx < 1.5x\n",
                   speedup4);
      gate_failed = true;
    } else {
      std::printf("%-16s gate: %.2fx >= 1.5x at 4 shards  ok\n", "shard_scaling", speedup4);
    }
  } else {
    std::printf("%-16s gate skipped: %u hardware threads < 4\n", "shard_scaling", hw);
  }
  if (!shards_csv.empty() && !write_shards_csv(shards_csv, shard_cells)) {
    std::fprintf(stderr, "cannot write '%s'\n", shards_csv.c_str());
    return 1;
  }

  if (!threads_csv.empty() && !write_threads_csv(threads_csv, quick, repeat)) {
    std::fprintf(stderr, "cannot write '%s'\n", threads_csv.c_str());
    return 1;
  }
  return gate_failed ? 1 : 0;
}
