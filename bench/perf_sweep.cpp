// Perf-regression harness for the event core. Runs busy-fabric
// scenarios with the fabric event fast path on ("fast") and off
// ("slow"), measures events/second, wall time, and peak RSS, and emits
// the numbers as JSON (BENCH_core.json). A result-store cell
// (sweep_store_warm) runs a Table II-shaped batch on the full 648-node
// fabric against the on-disk result store: cold simulates every run,
// warm serves the whole batch from a populated store, and the warm/cold
// runs-per-second ratio gates the store's read path.
//
// Usage:
//   perf_sweep [--json=PATH] [--baseline=PATH] [--max-regress=0.20]
//              [--repeat=N] [--quick] [--threads-csv=PATH]
//
// --json=PATH       write results as JSON (stdout always gets a table).
// --baseline=PATH   compare against a previously written JSON file;
//                   exit 1 if any baseline row has no (scenario, queue)
//                   match in this run, or if a gated ratio — fast over
//                   slow events per packet, or store warm over cold —
//                   dropped by more than --max-regress. The ratios (not
//                   raw events/sec, which is printed informational only)
//                   are what gate CI: they cancel out host speed, so the
//                   committed baseline stays valid on any runner.
// --max-regress=F   allowed fractional ratio regression (default 0.20).
// --repeat=N        runs per cell, best-of (default 3; 1 with --quick).
// --threads-csv=PATH  write a sweep thread-scaling curve (threads,
//                   runs/sec, utilization) as CSV.
// --shards-csv=PATH write the intra-run shard-scaling curve (shards,
//                   events/sec, speedup, cross-shard mailbox counters)
//                   as CSV. The shard_scaling cells always run; on
//                   hosts with >= 4 hardware threads they also gate
//                   >= 1.5x events/sec at 4 shards over serial.
//
// Two gates need no baseline: the scale_10k cell's footprint must stay
// within kMaxBytesPerEndpoint (a byte count, so host-independent), and
// the shard gate above. Both fail the run only after --json, the CSVs
// and the --baseline comparison are written, so a tripped gate still
// leaves the numbers behind.
//
// Every cell builds its topology/routing snapshot once, outside the
// timed region, and passes it to each of its runs. The fast/slow pair
// is a behavioural guard: bytes and packets must match exactly while
// events must strictly drop, or the harness aborts — a perf number from
// a divergent simulation would be meaningless. Each cell reports
// events-per-delivered-packet plus a per-kind breakdown. The pair gates
// on the events-per-packet ratio rather than wall time: event counts are
// bit-deterministic, so the ratio is host-independent in the strongest
// sense and can never flake on a loaded runner. Two uncontended cells
// carry the headline win (lazy wakeups elide nearly every switch
// kEvLinkFree when queues drain); the congested cells document the
// smaller but still-real reduction.

#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "store/result_store.hpp"

namespace {

using namespace ibsim;

/// Footprint ceiling for the scale_10k cell: its peak-RSS delta per HCA.
/// Nothing at this scale may be sized by node count squared; dense
/// per-destination CC state alone used to cost ~240 KB per endpoint.
constexpr long kMaxBytesPerEndpoint = 32768;

struct Scenario {
  const char* name;
  sim::SimConfig config;
};

/// The busy-fabric cases the paper reproductions spend their time in:
/// silent trees (Table II), windy background (figs 5-8), and moving
/// hotspots (figs 9-10), all on a 72-node folded Clos.
std::vector<Scenario> make_scenarios(bool quick) {
  const core::Time window = (quick ? 200 : 500) * core::kMicrosecond;
  sim::SimConfig base;
  base.topology = sim::TopologyKind::FoldedClos;
  base.clos = topo::FoldedClosParams::scaled(12, 6, 6);
  base.sim_time = window;
  base.warmup = 0;
  base.cc.ccti_increase = 4;
  base.cc.ccti_timer = 38;

  Scenario silent{"busy_fabric", base};
  silent.config.scenario.fraction_b = 0.0;
  silent.config.scenario.fraction_c_of_rest = 0.8;
  silent.config.scenario.n_hotspots = 2;

  Scenario windy{"windy_p50", base};
  windy.config.scenario.fraction_b = 1.0;
  windy.config.scenario.p = 0.5;
  windy.config.scenario.n_hotspots = 2;

  Scenario moving{"moving_hotspots", base};
  moving.config.sim_time = 2 * window;
  moving.config.scenario.fraction_b = 0.5;
  moving.config.scenario.p = 0.4;
  moving.config.scenario.n_hotspots = 2;
  moving.config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;

  // CC-heavy stress: every node aims at hotspots, aggressive marking and
  // a fast timer keep the whole BECN -> throttle -> recover loop hot, so
  // regressions in the reaction-point path (ccalg) show up here first.
  Scenario cc_storm{"cc_storm", base};
  cc_storm.config.scenario.fraction_b = 1.0;
  cc_storm.config.scenario.p = 0.9;
  cc_storm.config.scenario.n_hotspots = 4;
  cc_storm.config.cc.threshold_weight = 15;
  cc_storm.config.cc.ccti_timer = 10;

  // Uncontended uniform traffic at two load points — the regime the
  // fabric fast path targets: queues drain between packets, so almost
  // every switch kEvLinkFree is provably dead and elided. These two
  // cells carry the headline events-per-packet reduction.
  Scenario unc25{"uncontended_25", base};
  unc25.config.scenario.fraction_b = 0.0;
  unc25.config.scenario.fraction_c_of_rest = 0.8;
  unc25.config.scenario.n_hotspots = 0;
  unc25.config.scenario.capacity_gbps = 3.375;  // 25% of the 13.5 Gb/s cap

  Scenario unc11{"uncontended_11", base};
  unc11.config.scenario.fraction_b = 0.0;
  unc11.config.scenario.fraction_c_of_rest = 0.8;
  unc11.config.scenario.n_hotspots = 0;
  unc11.config.scenario.capacity_gbps = 1.5;

  // Application-workload injection path: a 24-rank incast driven by the
  // workload engine (dependency gating, per-op delivery accounting) over
  // the uniform background. Messages are sized so the hot sink stays
  // saturated for the whole window — the cell tracks events/sec of the
  // rank-source poll + completion path, not application makespan.
  Scenario workload_incast{"workload_incast", base};
  workload_incast.config.workload.name = "incast";
  workload_incast.config.workload.ranks = 24;
  workload_incast.config.workload.message_bytes = 1024 * 1024;
  workload_incast.config.workload.iterations = 8;

  return {silent, windy, moving, cc_storm, unc25, unc11, workload_incast};
}

struct Cell {
  std::string scenario;
  std::string queue;
  std::uint64_t events = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_packets = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double events_per_packet = 0.0;
  std::array<std::uint64_t, core::Scheduler::kKindSlots> by_kind{};
  long peak_rss_kib = 0;
  long bytes_per_endpoint = 0;  ///< scale cells only: RSS delta / endpoints
};

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

/// Best-of-`repeat` timed runs of one (scenario, variant) cell on a
/// shared snapshot. Fabric construction is excluded: the number under
/// guard is event-loop throughput, not topology/routing setup.
Cell run_cell(const Scenario& scenario, const std::shared_ptr<const sim::RoutingSnapshot>& snapshot,
              bool fast_path, const char* label, int repeat) {
  Cell cell;
  cell.scenario = scenario.name;
  cell.queue = label;
  for (int i = 0; i < repeat; ++i) {
    sim::SimConfig config = scenario.config;
    config.fabric.fast_path = fast_path;
    sim::Simulation simulation(config, snapshot);
    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult result = simulation.run();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    if (i == 0 || wall.count() < cell.wall_seconds) {
      cell.wall_seconds = wall.count();
      cell.events = result.events_executed;
      cell.delivered_bytes = result.delivered_bytes;
      cell.delivered_packets = result.delivered_packets;
      cell.by_kind = result.events_by_kind;
    }
  }
  cell.events_per_sec =
      cell.wall_seconds > 0.0 ? static_cast<double>(cell.events) / cell.wall_seconds : 0.0;
  cell.events_per_packet = cell.delivered_packets > 0
                               ? static_cast<double>(cell.events) /
                                     static_cast<double>(cell.delivered_packets)
                               : 0.0;
  cell.peak_rss_kib = peak_rss_kib();
  return cell;
}

/// Print the per-kind executed-event breakdown for one cell (slots as
/// documented on core::Scheduler::kKindSlots).
void print_by_kind(const Cell& cell) {
  std::printf("%-16s %-9s   by kind: arrive %llu  link_free %llu  credit %llu  "
              "sink %llu  retry %llu  other %llu\n",
              cell.scenario.c_str(), cell.queue.c_str(),
              static_cast<unsigned long long>(cell.by_kind[1]),
              static_cast<unsigned long long>(cell.by_kind[2]),
              static_cast<unsigned long long>(cell.by_kind[3]),
              static_cast<unsigned long long>(cell.by_kind[4]),
              static_cast<unsigned long long>(cell.by_kind[5]),
              static_cast<unsigned long long>(cell.by_kind[0] + cell.by_kind[6]));
}

/// The 10k-endpoint scale cell: the ROADMAP's "modern cluster" target on
/// the scale_10k fat-tree (16 pods x 32 leaves x 20 nodes = 10240 HCAs,
/// 608 switches, 64-port aggregation/core radixes). The cell proves the
/// run *fits* — peak RSS and bytes-per-endpoint land in the JSON — and
/// tracks event-loop throughput at a working set that no cache level can
/// hold, which is exactly where the SoA layout earns its keep. The
/// harness builds the snapshot (routing is one BFS per leaf switch,
/// ~0.1 s) once and shares it across repeats and the fast/slow pair.
Scenario make_scale_scenario(bool quick) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_10k();
  config.sim_time = (quick ? 50 : 100) * core::kMicrosecond;
  config.warmup = 0;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 0.0;
  config.scenario.fraction_c_of_rest = 0.8;
  config.scenario.n_hotspots = 8;
  return {"scale_10k", config};
}

/// The Table II batch on the full sun_dcs_648 fabric, with the window
/// shortened so per-run setup (topology + routing + fabric build) is a
/// realistic share of the cost. Three seeds by four {C active} x {CC}
/// variants = 12 runs per sweep, each on its own snapshot.
std::vector<sim::SimConfig> make_sweep_configs(bool quick) {
  sim::ExperimentPreset preset = sim::ExperimentPreset::quick();
  preset.static_sim_time = (quick ? 10 : 15) * core::kMicrosecond;
  preset.static_warmup = 0;
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

/// Result-store cell: the Table II batch simulated outright (cold, no
/// store) versus served entirely from a freshly populated on-disk store
/// (warm: a one-off untimed pass fills the store, then every timed
/// repeat is pure hits — parse + deserialize, zero event-loop work).
/// events_per_sec carries runs per second; the warm/cold ratio is the
/// resumable-campaign turnaround win and gates against the committed
/// baseline.
Cell run_store_cell(bool warm, bool quick, int repeat, const std::string& store_dir) {
  std::vector<sim::SimConfig> configs = make_sweep_configs(quick);
  for (sim::SimConfig& config : configs) {
    config.result_store = warm ? store_dir : std::string();
  }
  if (warm) (void)sim::run_parallel(configs, /*threads=*/1);  // populate, untimed
  Cell cell;
  cell.scenario = "sweep_store_warm";
  cell.queue = warm ? "warm" : "cold";
  for (int i = 0; i < repeat; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<sim::SimResult> results = sim::run_parallel(configs, /*threads=*/1);
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    for (const sim::SimResult& r : results) {
      events += r.events_executed;
      bytes += r.delivered_bytes;
      packets += r.delivered_packets;
    }
    if (i == 0 || wall.count() < cell.wall_seconds) {
      cell.wall_seconds = wall.count();
      cell.events = events;
      cell.delivered_bytes = bytes;
      cell.delivered_packets = packets;
    }
  }
  cell.events_per_sec = cell.wall_seconds > 0.0
                            ? static_cast<double>(configs.size()) / cell.wall_seconds
                            : 0.0;
  cell.peak_rss_kib = peak_rss_kib();
  return cell;
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

/// One shard-scaling cell plus the engine's cross-shard traffic gauges.
struct ShardCell {
  Cell cell;
  std::int64_t windows = 0;
  std::int64_t crossed_packets = 0;
  std::int64_t crossed_credits = 0;
  std::int64_t absorbed_events = 0;
};

ShardCell run_shard_cell(const std::shared_ptr<const sim::RoutingSnapshot>& snapshot,
                         bool quick, std::int32_t shards, int repeat) {
  ShardCell sc;
  sc.cell.scenario = "shard_scaling";
  sc.cell.queue = "shards" + std::to_string(shards);
  for (int i = 0; i < repeat; ++i) {
    sim::SimConfig config = make_shard_config(quick);
    config.shards = shards;
    config.threads = shards;
    config.telemetry.counters = true;  // carries the sched.shard.* gauges out
    sim::Simulation simulation(config, snapshot);
    const auto start = std::chrono::steady_clock::now();
    const sim::SimResult result = simulation.run();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    if (i == 0 || wall.count() < sc.cell.wall_seconds) {
      sc.cell.wall_seconds = wall.count();
      sc.cell.events = result.events_executed;
      sc.cell.delivered_bytes = result.delivered_bytes;
      sc.cell.delivered_packets = result.delivered_packets;
      sc.cell.by_kind = result.events_by_kind;
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
  sc.cell.events_per_sec = sc.cell.wall_seconds > 0.0
                               ? static_cast<double>(sc.cell.events) / sc.cell.wall_seconds
                               : 0.0;
  sc.cell.events_per_packet =
      sc.cell.delivered_packets > 0
          ? static_cast<double>(sc.cell.events) / static_cast<double>(sc.cell.delivered_packets)
          : 0.0;
  sc.cell.peak_rss_kib = peak_rss_kib();
  return sc;
}

/// Intra-run shard-scaling curve (mirrors --threads-csv): events/sec and
/// cross-shard mailbox traffic per shard count.
bool write_shards_csv(const std::string& path, const std::vector<ShardCell>& cells,
                      const std::vector<std::int32_t>& counts) {
  std::ofstream out(path);
  if (!out) return false;
  out << "shards,events_per_sec,speedup,windows,crossed_packets,crossed_credits,"
         "absorbed_events\n";
  const double serial = cells.empty() ? 0.0 : cells.front().cell.events_per_sec;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%d,%.0f,%.3f,%lld,%lld,%lld,%lld\n", counts[i],
                  cells[i].cell.events_per_sec,
                  serial > 0.0 ? cells[i].cell.events_per_sec / serial : 0.0,
                  static_cast<long long>(cells[i].windows),
                  static_cast<long long>(cells[i].crossed_packets),
                  static_cast<long long>(cells[i].crossed_credits),
                  static_cast<long long>(cells[i].absorbed_events));
    out << buf;
  }
  return static_cast<bool>(out);
}

/// Sweep thread-scaling curve: runs/sec and worker utilization per
/// thread count, written as CSV for the CI artifact.
bool write_threads_csv(const std::string& path, bool quick, int repeat) {
  std::vector<sim::SimConfig> configs = make_sweep_configs(quick);
  std::ofstream out(path);
  if (!out) return false;
  out << "threads,runs_per_sec,utilization_pct\n";
  for (const std::int32_t threads : {1, 2, 4, 8}) {
    double best_wall = 0.0;
    double utilization = 0.0;
    for (int i = 0; i < repeat; ++i) {
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

std::string json_line(const Cell& cell) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "    {\"scenario\": \"%s\", \"queue\": \"%s\", \"events\": %llu, "
                "\"delivered_bytes\": %llu, \"delivered_packets\": %llu, "
                "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
                "\"events_per_packet\": %.3f, \"peak_rss_kib\": %ld}",
                cell.scenario.c_str(), cell.queue.c_str(),
                static_cast<unsigned long long>(cell.events),
                static_cast<unsigned long long>(cell.delivered_bytes),
                static_cast<unsigned long long>(cell.delivered_packets), cell.wall_seconds,
                cell.events_per_sec, cell.events_per_packet, cell.peak_rss_kib);
  std::string line = buf;
  if (cell.bytes_per_endpoint > 0) {
    char extra[64];
    std::snprintf(extra, sizeof(extra), ", \"bytes_per_endpoint\": %ld}",
                  cell.bytes_per_endpoint);
    line.replace(line.size() - 1, 1, extra);
  }
  return line;
}

bool write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": \"ibsim-bench-core-v1\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << json_line(cells[i]) << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

/// Extract `"key": "value"` from a one-result-per-line JSON row.
bool extract_string(const std::string& line, const char* key, std::string* value) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *value = line.substr(begin, end - begin);
  return true;
}

bool extract_double(const std::string& line, const char* key, double* value) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *value = std::atof(line.c_str() + at + needle.size());
  return true;
}

/// Read the gated columns back from a file this harness wrote earlier.
/// events_per_packet is absent from rows written before the fast-path
/// cells existed; such rows simply never gate on it.
std::vector<Cell> read_baseline(const std::string& path) {
  std::vector<Cell> cells;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    Cell cell;
    if (extract_string(line, "scenario", &cell.scenario) &&
        extract_string(line, "queue", &cell.queue) &&
        extract_double(line, "events_per_sec", &cell.events_per_sec)) {
      (void)extract_double(line, "events_per_packet", &cell.events_per_packet);
      cells.push_back(cell);
    }
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::string threads_csv_path;
  std::string shards_csv_path;
  double max_regress = 0.20;
  int repeat = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--threads-csv=", 0) == 0) {
      threads_csv_path = arg.substr(14);
    } else if (arg.rfind("--shards-csv=", 0) == 0) {
      shards_csv_path = arg.substr(13);
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      max_regress = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg == "--quick") {
      quick = true;
      repeat = 1;
    } else {
      std::fprintf(stderr,
                   "usage: perf_sweep [--json=PATH] [--baseline=PATH] "
                   "[--max-regress=F] [--repeat=N] [--quick] [--threads-csv=PATH] "
                   "[--shards-csv=PATH]\n");
      return 2;
    }
  }
  if (repeat < 1) repeat = 1;

  // Baseline-free gates record their verdict here; the run fails at the
  // end, after every output file is written.
  bool gate_failed = false;
  std::vector<Cell> cells;
  std::printf("%-16s %-9s %12s %10s %14s %10s\n", "scenario", "queue", "events", "wall_s",
              "events/sec", "rss_kib");
  for (const Scenario& scenario : make_scenarios(quick)) {
    // Fabric fast-path A/B pair. Event counts differ by design (that is
    // the optimisation), so the guard here is behavioural: identical
    // bytes and packets, strictly fewer events.
    const auto snapshot = sim::build_snapshot(scenario.config);
    const Cell fast = run_cell(scenario, snapshot, /*fast_path=*/true, "fast", repeat);
    const Cell slow = run_cell(scenario, snapshot, /*fast_path=*/false, "slow", repeat);
    if (fast.delivered_bytes != slow.delivered_bytes ||
        fast.delivered_packets != slow.delivered_packets || fast.events >= slow.events) {
      std::fprintf(stderr,
                   "FATAL: fast path diverged on '%s' (events %llu vs %llu, bytes %llu vs "
                   "%llu, packets %llu vs %llu)\n",
                   scenario.name, static_cast<unsigned long long>(fast.events),
                   static_cast<unsigned long long>(slow.events),
                   static_cast<unsigned long long>(fast.delivered_bytes),
                   static_cast<unsigned long long>(slow.delivered_bytes),
                   static_cast<unsigned long long>(fast.delivered_packets),
                   static_cast<unsigned long long>(slow.delivered_packets));
      return 1;
    }
    for (const Cell& cell : {fast, slow}) {
      std::printf("%-16s %-9s %12llu %10.4f %14.0f %10ld\n", cell.scenario.c_str(),
                  cell.queue.c_str(), static_cast<unsigned long long>(cell.events),
                  cell.wall_seconds, cell.events_per_sec, cell.peak_rss_kib);
      cells.push_back(cell);
    }
    // The headline fast-path metric: events per delivered packet, whose
    // slow/fast ratio is the deterministic "how many fewer events for
    // the same simulated work" improvement.
    std::printf("%-16s events/packet fast path: %.2f -> %.2f (%.3fx fewer events)\n",
                scenario.name, slow.events_per_packet, fast.events_per_packet,
                fast.events_per_packet > 0.0
                    ? slow.events_per_packet / fast.events_per_packet
                    : 0.0);
    print_by_kind(fast);
    print_by_kind(slow);
  }

  // 10k-endpoint scale cell. One fast/slow pair — the evt/pkt ratio
  // gives the scale cell a deterministic gated ratio like every other
  // scenario — with the per-endpoint footprint measured as the cell's
  // peak-RSS delta, snapshot included. Repeats are capped at 2: each
  // repeat re-builds a 10240-HCA fabric, and best-of-2 on a ~1.3M-event
  // run is already stable.
  {
    const long rss_before_scale = peak_rss_kib();
    const Scenario scale = make_scale_scenario(quick);
    const auto snapshot = sim::build_snapshot(scale.config);
    const int scale_repeat = repeat < 2 ? repeat : 2;
    Cell scale_fast = run_cell(scale, snapshot, /*fast_path=*/true, "fast", scale_repeat);
    const Cell scale_slow = run_cell(scale, snapshot, /*fast_path=*/false, "slow", scale_repeat);
    if (scale_fast.delivered_bytes != scale_slow.delivered_bytes ||
        scale_fast.delivered_packets != scale_slow.delivered_packets ||
        scale_fast.events >= scale_slow.events) {
      std::fprintf(stderr,
                   "FATAL: fast path diverged on 'scale_10k' (events %llu vs %llu, "
                   "bytes %llu vs %llu)\n",
                   static_cast<unsigned long long>(scale_fast.events),
                   static_cast<unsigned long long>(scale_slow.events),
                   static_cast<unsigned long long>(scale_fast.delivered_bytes),
                   static_cast<unsigned long long>(scale_slow.delivered_bytes));
      return 1;
    }
    const long endpoints = scale.config.fat_tree3.node_count();
    scale_fast.bytes_per_endpoint =
        (scale_fast.peak_rss_kib - rss_before_scale) * 1024 / endpoints;
    for (const Cell& cell : {scale_fast, scale_slow}) {
      std::printf("%-16s %-9s %12llu %10.4f %14.0f %10ld\n", cell.scenario.c_str(),
                  cell.queue.c_str(), static_cast<unsigned long long>(cell.events),
                  cell.wall_seconds, cell.events_per_sec, cell.peak_rss_kib);
      cells.push_back(cell);
    }
    std::printf("%-16s events/packet fast path: %.2f -> %.2f (%.3fx fewer events)\n",
                scale.name, scale_slow.events_per_packet, scale_fast.events_per_packet,
                scale_fast.events_per_packet > 0.0
                    ? scale_slow.events_per_packet / scale_fast.events_per_packet
                    : 0.0);
    std::printf("%-16s footprint: %ld KiB peak RSS, %ld bytes/endpoint over %ld HCAs\n",
                scale.name, scale_fast.peak_rss_kib, scale_fast.bytes_per_endpoint,
                endpoints);
    if (scale_fast.bytes_per_endpoint > kMaxBytesPerEndpoint) {
      std::fprintf(stderr, "FATAL: scale_10k footprint %ld bytes/endpoint > %ld\n",
                   scale_fast.bytes_per_endpoint, kMaxBytesPerEndpoint);
      gate_failed = true;
    } else {
      std::printf("%-16s gate: %ld <= %ld bytes/endpoint  ok\n", scale.name,
                  scale_fast.bytes_per_endpoint, kMaxBytesPerEndpoint);
    }
    print_by_kind(scale_fast);
    print_by_kind(scale_slow);
  }

  // Result-store cell: cold simulates the batch, warm serves it all
  // from disk. Cached results round-trip bit-exactly, so both arms must
  // agree on events and bytes.
  {
    const std::string store_dir =
        (std::filesystem::temp_directory_path() /
         ("ibsim_perf_store_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(store_dir);
    const Cell store_cold = run_store_cell(/*warm=*/false, quick, repeat, store_dir);
    const Cell store_warm = run_store_cell(/*warm=*/true, quick, repeat, store_dir);
    std::filesystem::remove_all(store_dir);
    store::StoreRegistry::instance().clear();
    if (store_cold.events != store_warm.events ||
        store_cold.delivered_bytes != store_warm.delivered_bytes) {
      std::fprintf(stderr,
                   "FATAL: result store changed results (events %llu vs %llu, "
                   "bytes %llu vs %llu)\n",
                   static_cast<unsigned long long>(store_cold.events),
                   static_cast<unsigned long long>(store_warm.events),
                   static_cast<unsigned long long>(store_cold.delivered_bytes),
                   static_cast<unsigned long long>(store_warm.delivered_bytes));
      return 1;
    }
    for (const Cell& cell : {store_cold, store_warm}) {
      std::printf("%-18s %-7s %12llu %10.4f %10.2f runs/sec %10ld\n", cell.scenario.c_str(),
                  cell.queue.c_str(), static_cast<unsigned long long>(cell.events),
                  cell.wall_seconds, cell.events_per_sec, cell.peak_rss_kib);
      cells.push_back(cell);
    }
    std::printf("%-18s speedup warm/cold: %.2fx\n", "sweep_store_warm",
                store_cold.events_per_sec > 0.0
                    ? store_warm.events_per_sec / store_cold.events_per_sec
                    : 0.0);
  }

  // Intra-run shard scaling: the same ft3-2k simulation sliced across
  // 1/2/4/8 shards. Serial (shards=1) and sharded runs are only
  // stats-equivalent, so the guard here is the scaling gate, not an A/B
  // bit-compare (tests/sim/shard_equivalence_test.cpp owns equivalence).
  {
    const std::vector<std::int32_t> shard_counts = {1, 2, 4, 8};
    std::vector<ShardCell> shard_cells;
    const int shard_repeat = repeat < 2 ? repeat : 2;
    const auto snapshot = sim::build_snapshot(make_shard_config(quick));
    for (const std::int32_t s : shard_counts) {
      shard_cells.push_back(run_shard_cell(snapshot, quick, s, shard_repeat));
      const ShardCell& sc = shard_cells.back();
      std::printf("%-16s %-9s %12llu %10.4f %14.0f %10ld\n", sc.cell.scenario.c_str(),
                  sc.cell.queue.c_str(), static_cast<unsigned long long>(sc.cell.events),
                  sc.cell.wall_seconds, sc.cell.events_per_sec, sc.cell.peak_rss_kib);
      cells.push_back(sc.cell);
    }
    const double serial_eps = shard_cells.front().cell.events_per_sec;
    for (std::size_t i = 1; i < shard_cells.size(); ++i) {
      const ShardCell& sc = shard_cells[i];
      std::printf("%-16s speedup shards%d/serial: %.2fx  (windows %lld, crossed pkt %lld / "
                  "crd %lld, absorbed %lld)\n",
                  "shard_scaling", shard_counts[i],
                  serial_eps > 0.0 ? sc.cell.events_per_sec / serial_eps : 0.0,
                  static_cast<long long>(sc.windows),
                  static_cast<long long>(sc.crossed_packets),
                  static_cast<long long>(sc.crossed_credits),
                  static_cast<long long>(sc.absorbed_events));
    }
    // The scaling gate: >= 1.5x at 4 shards. Only meaningful with >= 4
    // cores to spread the workers over; smaller runners (and the 1-core
    // sandbox) report the curve without gating on it.
    const unsigned hw = std::thread::hardware_concurrency();
    const double speedup4 =
        serial_eps > 0.0 ? shard_cells[2].cell.events_per_sec / serial_eps : 0.0;
    if (hw >= 4) {
      if (speedup4 < 1.5) {
        std::fprintf(stderr, "FATAL: shard_scaling speedup at 4 shards %.2fx < 1.5x\n",
                     speedup4);
        gate_failed = true;
      } else {
        std::printf("%-16s gate: %.2fx >= 1.5x at 4 shards  ok\n", "shard_scaling",
                    speedup4);
      }
    } else {
      std::printf("%-16s gate skipped: %u hardware threads < 4\n", "shard_scaling", hw);
    }
    if (!shards_csv_path.empty() &&
        !write_shards_csv(shards_csv_path, shard_cells, shard_counts)) {
      std::fprintf(stderr, "cannot write '%s'\n", shards_csv_path.c_str());
      return 1;
    }
  }

  if (!threads_csv_path.empty() && !write_threads_csv(threads_csv_path, quick, repeat)) {
    std::fprintf(stderr, "cannot write '%s'\n", threads_csv_path.c_str());
    return 1;
  }

  if (!json_path.empty() && !write_json(json_path, cells)) {
    std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
    return 1;
  }

  if (!baseline_path.empty()) {
    const std::vector<Cell> baseline = read_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "no baseline rows in '%s'\n", baseline_path.c_str());
      return 1;
    }
    const auto find = [](const std::vector<Cell>& rows, const std::string& scenario,
                         const std::string& queue) -> const Cell* {
      for (const Cell& cell : rows) {
        if (cell.scenario == scenario && cell.queue == queue) return &cell;
      }
      return nullptr;
    };
    // Every baseline row must still be measured: a cell that vanished
    // would otherwise take its gate with it unnoticed. Raw events/sec
    // rows are informational — they track host speed as much as code
    // speed.
    int missing = 0;
    for (const Cell& then : baseline) {
      const Cell* now = find(cells, then.scenario, then.queue);
      if (now == nullptr) {
        std::fprintf(stderr, "FATAL: baseline row %s/%s has no match in this run\n",
                     then.scenario.c_str(), then.queue.c_str());
        ++missing;
        continue;
      }
      std::printf("baseline %-16s %-9s %14.0f -> %14.0f (%+.0f%%, informational)\n",
                  then.scenario.c_str(), then.queue.c_str(), then.events_per_sec,
                  now->events_per_sec, 100.0 * (now->events_per_sec / then.events_per_sec - 1.0));
    }
    // The gate: host-independent ratios. warm/cold compares within-host
    // runs/sec (cancelling host speed); fast/slow compares
    // events-per-packet — a pure event-count ratio, so it is exactly
    // reproducible on any runner. Note the inversion: the improvement is
    // slow-events-per-packet over fast. A partner missing from this run
    // was already reported above.
    bool regressed = false;
    for (const Cell& then : baseline) {
      const char* denom = nullptr;
      if (then.queue == "warm") denom = "cold";
      if (then.queue == "fast") denom = "slow";
      if (denom == nullptr) continue;
      const Cell* then_denom = find(baseline, then.scenario, denom);
      const Cell* now_numer = find(cells, then.scenario, then.queue);
      const Cell* now_denom = find(cells, then.scenario, denom);
      if (then_denom == nullptr || now_numer == nullptr || now_denom == nullptr) continue;
      const bool count_gate = then.queue == "fast";
      double then_ratio = 0.0;
      double now_ratio = 0.0;
      if (count_gate) {
        if (then.events_per_packet <= 0.0 || then_denom->events_per_packet <= 0.0 ||
            now_numer->events_per_packet <= 0.0 || now_denom->events_per_packet <= 0.0) {
          continue;
        }
        then_ratio = then_denom->events_per_packet / then.events_per_packet;
        now_ratio = now_denom->events_per_packet / now_numer->events_per_packet;
      } else {
        if (then_denom->events_per_sec <= 0.0 || now_numer->events_per_sec <= 0.0 ||
            now_denom->events_per_sec <= 0.0) {
          continue;
        }
        then_ratio = then.events_per_sec / then_denom->events_per_sec;
        now_ratio = now_numer->events_per_sec / now_denom->events_per_sec;
      }
      // The store cell's warm pass is sub-millisecond (12 record parses
      // from page cache), so its raw warm/cold ratio is timer noise
      // beyond an order of magnitude. Clamp both sides: the gate asks
      // "still >= 10x-ish", never "still exactly 300x".
      if (then.scenario == "sweep_store_warm") {
        if (then_ratio > 10.0) then_ratio = 10.0;
        if (now_ratio > 10.0) now_ratio = 10.0;
      }
      const bool ok = now_ratio >= then_ratio * (1.0 - max_regress);
      std::printf("%s %-18s %s/%s %.3fx -> %.3fx  %s\n",
                  count_gate ? "evt/pkt " : "speedup ", then.scenario.c_str(),
                  then.queue.c_str(), denom, then_ratio, now_ratio, ok ? "ok" : "REGRESSED");
      if (!ok) regressed = true;
    }
    if (missing > 0) {
      std::fprintf(stderr, "%d baseline row(s) missing from this run\n", missing);
    }
    if (regressed) {
      std::fprintf(stderr, "speedup ratio regressed beyond %.0f%%\n", max_regress * 100.0);
    }
    if (missing > 0 || regressed) return 1;
  }
  return gate_failed ? 1 : 0;
}
