// One measured unit of one benchmark workload, run in this process.
//
// Usage: perfbench_probe <workload> <seed> <traced 0|1>
//
// The probe drives the simulator through its public API and times each
// call from outside: sim::build_topology_snapshot, sim::build_routing_snapshot,
// the sim::Simulation(config, snapshot) constructor and Simulation::run.
// Every timing is a span (name, parent, start, end) kept in memory. The
// snapshot cache is never consulted, so every unit pays a cold build, as
// a fresh `simulate` process does.
//
// With traced=1 the runs also turn on the counter registry
// (telemetry.counters), and ft3-2k sharded units add a serial twin run
// after the unit for the speed-up and equivalence check.
//
// After the unit the probe times a fixed host-speed reference kernel
// (reference_s), which run.py uses to scale the unit's host times.
//
// Output: one JSON object on stdout with the unit's timings, peak RSS,
// reference time, output checks, per-layer counts and spans. perfbench/run.py runs one
// probe process per unit and aggregates them.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "store/version.hpp"

namespace {

using namespace ibsim;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory spans, timed against the probe's start.
class Trace {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    return s.end_s - s.start_s;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// A /proc/self/status field in KiB (VmRSS, VmHWM).
long status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atol(line.c_str() + n + 1);
    }
  }
  return 0;
}

/// Host-speed reference: seconds for a fixed binary-heap event loop that
/// updates random slots of a 32 MiB table, the same mix of queue work and
/// cache-missing loads as the simulator's event loop, in code no change to
/// the simulator touches. run.py scales each unit's host times by it,
/// because the speed of a shared host drifts by 20-30% over minutes.
double reference_s() {
  const auto start = Clock::now();
  std::vector<std::uint64_t> table(std::size_t{4} << 20);
  std::vector<std::uint64_t> heap;
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto later = std::greater<>();
  for (int i = 0; i < 65536; ++i) {
    heap.push_back(next() & 0xffffff);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::uint64_t now = heap.back();
    std::uint64_t& slot = table[next() & (table.size() - 1)];
    slot += now;
    sink ^= slot;
    heap.back() = now + (x >> 40);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  // Keeps the loop observable; the value itself is meaningless.
  if (sink == 42) std::fprintf(stderr, " ");
  return seconds;
}

/// One simulation of a unit, with its outside timings.
struct SimRun {
  std::string label;
  sim::SimConfig config;
  sim::SimResult result;
  std::int64_t injected_bytes = 0;  ///< lifetime, every HCA
  std::int64_t delivered_bytes = 0; ///< lifetime, every HCA
  double build_s = 0.0;
  double run_s = 0.0;
  long rss_growth_kib = 0;  ///< resident-set growth across the constructor
};

/// Build onto `snapshot`, run, and keep what the checks and metrics need.
SimRun simulate(const std::string& label, const sim::SimConfig& config,
                const std::shared_ptr<const sim::RoutingSnapshot>& snapshot, Trace& trace,
                int parent) {
  SimRun out;
  out.label = label;
  out.config = config;
  const int sim_span = trace.open("sim." + label, parent);
  const long rss_before = status_kib("VmRSS");
  const int build = trace.open("fabric.build", sim_span);
  sim::Simulation simulation(config, snapshot);
  out.build_s = trace.close(build);
  out.rss_growth_kib = status_kib("VmRSS") - rss_before;
  const int run = trace.open("sim.run", sim_span);
  out.result = simulation.run();
  out.run_s = trace.close(run);
  out.injected_bytes = simulation.fabric().total_injected_bytes();
  out.delivered_bytes = simulation.fabric().total_delivered_bytes();
  trace.close(sim_span);
  return out;
}

// ---------------------------------------------------------------------------
// Workloads: labelled configs that share one topology, so one cold
// snapshot serves the whole unit.
// ---------------------------------------------------------------------------

using Runs = std::vector<std::pair<std::string, sim::SimConfig>>;

/// The paper's taxonomy on the 648-node fabric, quick-preset CC scaling:
/// silent forest (Table II), windy forest p=50% (Fig 6), moving silent
/// forest (Fig 9), each with CC off and on.
Runs paper_taxonomy(std::uint64_t seed) {
  sim::SimConfig base = sim::ExperimentPreset::quick().base_config();
  base.sim_time = 1000 * core::kMicrosecond;
  base.warmup = 250 * core::kMicrosecond;
  base.seed = seed;
  base.threads = 1;

  sim::SimConfig silent = base;
  silent.scenario.fraction_b = 0.0;
  silent.scenario.fraction_c_of_rest = 0.8;
  silent.scenario.n_hotspots = 8;

  sim::SimConfig windy = base;
  windy.scenario.fraction_b = 1.0;
  windy.scenario.p = 0.5;
  windy.scenario.n_hotspots = 8;

  sim::SimConfig moving = silent;
  moving.scenario.hotspot_lifetime = 250 * core::kMicrosecond;

  Runs runs;
  for (const auto& [name, config] :
       {std::pair{"silent", silent}, std::pair{"windy", windy}, std::pair{"moving", moving}}) {
    for (const bool cc : {false, true}) {
      sim::SimConfig c = config;
      c.cc.enabled = cc;
      runs.emplace_back(std::string(name) + (cc ? "_cc_on" : "_cc_off"), c);
    }
  }
  return runs;
}

/// A three-level fat-tree with the quick preset's CC scaling, serial.
sim::SimConfig fat_tree(const topo::FatTree3Params& params, std::uint64_t seed) {
  sim::SimConfig c;
  c.topology = sim::TopologyKind::FatTree3;
  c.fat_tree3 = params;
  c.warmup = 0;
  c.cc.ccti_increase = 4;
  c.cc.ccti_timer = 38;
  c.seed = seed;
  c.threads = 1;
  return c;
}

/// 10240 HCAs, silent forest with 8 static hotspots, 50 us window.
Runs ft3_10k_cold(std::uint64_t seed) {
  sim::SimConfig c = fat_tree(topo::FatTree3Params::scale_10k(), seed);
  c.sim_time = 50 * core::kMicrosecond;
  c.scenario.fraction_b = 0.0;
  c.scenario.fraction_c_of_rest = 0.8;
  c.scenario.n_hotspots = 8;
  return {{"ft3_10k", c}};
}

/// 2048 HCAs on 2 shards and 2 threads, windy forest (every node a B
/// node, p=20%) with 32 hotspots: 32 congestion trees under uniform
/// traffic that keeps every link busy. Events per simulated microsecond
/// stay flat from 1 ms on, so the whole window is work (the 2-hotspot
/// p=50% mix saturates by about 200 us and then starves).
Runs shard_2k(std::uint64_t seed) {
  sim::SimConfig c = fat_tree(topo::FatTree3Params::scale_2k(), seed);
  c.sim_time = 2500 * core::kMicrosecond;
  c.warmup = 500 * core::kMicrosecond;
  c.scenario.fraction_b = 1.0;
  c.scenario.p = 0.2;
  c.scenario.n_hotspots = 32;
  c.shards = 2;
  c.threads = 2;
  return {{"shard_2k", c}};
}

/// A canned all-to-all among the first 64 end nodes of ft3-2k (4 KiB per
/// message, 63 dependent phases), over 1 Gb/s uniform background from the
/// other 1984, serial. The collective finishes near 650 us of the 1200 us
/// window; a saturating background would leave it unfinished.
Runs collective_2k(std::uint64_t seed) {
  sim::SimConfig c = fat_tree(topo::FatTree3Params::scale_2k(), seed);
  c.sim_time = 1200 * core::kMicrosecond;
  c.workload.name = "all_to_all";
  c.workload.ranks = 64;
  c.workload.message_bytes = 4 * 1024;
  c.workload.iterations = 1;
  c.workload.background_uniform = true;
  c.scenario.capacity_gbps = 1.0;
  return {{"collective_2k", c}};
}

bool make_workload(const std::string& name, std::uint64_t seed, Runs* out) {
  if (name == "paper_taxonomy") *out = paper_taxonomy(seed);
  else if (name == "ft3_10k_cold") *out = ft3_10k_cold(seed);
  else if (name == "shard_2k") *out = shard_2k(seed);
  else if (name == "collective_2k") *out = collective_2k(seed);
  else return false;
  return true;
}

// ---------------------------------------------------------------------------
// Output checks. A simulation run fails when any check on it fails.
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

/// Checks that hold for every run, plus the workload-specific ones.
/// `failed[i]` is set for each run a failing check names.
std::vector<Check> check_runs(const std::string& workload, const std::vector<SimRun>& runs,
                              std::vector<bool>* failed) {
  std::vector<Check> checks;
  const auto add = [&](std::size_t run, std::string name, bool ok, std::string detail) {
    checks.push_back({runs[run].label + ":" + name, ok, std::move(detail)});
    if (!ok) (*failed)[run] = true;
  };
  const auto find = [&](const char* label) -> std::size_t {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].label == label) return i;
    }
    return runs.size();
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SimRun& r = runs[i];
    add(i, "delivered_le_injected", r.delivered_bytes <= r.injected_bytes,
        fmt("delivered %.0f B, injected %.0f B", static_cast<double>(r.delivered_bytes),
            static_cast<double>(r.injected_bytes)));
    add(i, "made_progress", r.result.delivered_packets > 0 && r.result.events_executed > 0,
        fmt("%.0f packets, %.0f events", static_cast<double>(r.result.delivered_packets),
            static_cast<double>(r.result.events_executed)));
  }
  if (workload == "paper_taxonomy") {
    const std::size_t off = find("silent_cc_off");
    const std::size_t on = find("silent_cc_on");
    // Table II: CC lifts the victims' receive rate (7.1x in the paper).
    add(on, "victims_gain_with_cc",
        runs[on].result.non_hotspot_rcv_gbps > runs[off].result.non_hotspot_rcv_gbps,
        fmt("victim rcv %.3f Gb/s on vs %.3f off", runs[on].result.non_hotspot_rcv_gbps,
            runs[off].result.non_hotspot_rcv_gbps));
    // Without CC the hotspots stay saturated near the 13.6 Gb/s sink rate.
    const double sink = runs[off].config.fabric.hca_drain_gbps;
    add(off, "hotspots_at_sink_rate",
        std::abs(runs[off].result.hotspot_rcv_gbps - sink) <= 0.05 * sink,
        fmt("hotspot rcv %.3f Gb/s vs sink %.3f", runs[off].result.hotspot_rcv_gbps, sink));
  }
  if (workload == "collective_2k") {
    const sim::WorkloadResult& w = runs[0].result.workload;
    add(0, "collective_completes", w.ran && w.completed,
        fmt("%.0f of %.0f messages", static_cast<double>(w.messages_completed),
            static_cast<double>(w.messages_total)));
  }
  return checks;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// End-of-run counter-registry value; 0 when the run did not publish it
/// (untraced units, fabric probes in sharded runs, shard gauges in serial ones).
std::int64_t counter(const sim::SimResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Per-layer counts read straight from the counter registry:
/// (per-layer metric, registry name).
constexpr std::array<std::pair<const char*, const char*>, 8> kRegistryCounts = {{
    {"fabric.credit_stalls", "fabric.credit_stalls"},
    {"fabric.arb_grants", "fabric.arb_grants"},
    {"fabric.throttle_events", "fabric.throttle_events"},
    {"shard.windows", "sched.shard.windows"},
    {"shard.crossed_packets", "sched.shard.crossed_packets"},
    {"shard.crossed_credits", "sched.shard.crossed_credits"},
    {"shard.absorbed_events", "sched.shard.absorbed_events"},
    {"shard.cut_links", "sched.shard.cut_links"},
}};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: perfbench_probe <workload> <seed> <traced 0|1>\n");
    return 2;
  }
  const std::string name = argv[1];
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const bool traced = std::strcmp(argv[3], "1") == 0;
  Runs workload;
  if (!make_workload(name, seed, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  if (traced) {
    for (auto& [label, config] : workload) config.telemetry.counters = true;
  }

  Trace trace;
  const int unit = trace.open("unit", -1);
  const sim::SimConfig& first = workload.front().second;
  const int snap = trace.open("topo.snapshot", unit);
  auto topology = sim::build_topology_snapshot(first);
  const double snapshot_s = trace.close(snap);
  const int route = trace.open("topo.routing", unit);
  auto routing = sim::build_routing_snapshot(topology, sim::tie_break_for(first.topology));
  const double routing_s = trace.close(route);

  std::vector<SimRun> runs;
  for (const auto& [label, config] : workload) {
    runs.push_back(simulate(label, config, routing, trace, unit));
  }
  const int check_span = trace.open("check", unit);
  std::vector<bool> failed(runs.size(), false);
  std::vector<Check> checks = check_runs(name, runs, &failed);
  trace.close(check_span);
  const double wall_s = trace.close(unit);

  // Traced sharded units: a serial twin of the same config, outside the
  // unit, for shard.speedup and the stats-equivalence check.
  double serial_run_s = 0.0;
  if (traced && runs.front().config.shards > 1) {
    sim::SimConfig serial = runs.front().config;
    serial.shards = 1;
    serial.threads = 1;
    const SimRun twin = simulate("serial_twin", serial, routing, trace, -1);
    serial_run_s = twin.run_s;
    // Same tolerance as tests/sim/shard_equivalence_test.cpp.
    const double a = twin.result.total_throughput_gbps;
    const double b = runs.front().result.total_throughput_gbps;
    const bool ok = std::abs(a - b) <= 0.15 * std::max(std::abs(a), std::abs(b));
    checks.push_back({"shard_2k:matches_serial_twin", ok,
                      fmt("throughput %.1f Gb/s sharded vs %.1f serial", b, a)});
    if (!ok) failed.front() = true;
  }

  double setup_s = snapshot_s + routing_s;
  double run_s = 0.0;
  double sim_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::array<std::uint64_t, core::Scheduler::kKindSlots> by_kind{};
  std::map<std::string, double> layers;
  for (const SimRun& r : runs) {
    setup_s += r.build_s;
    run_s += r.run_s;
    sim_us += static_cast<double>(r.config.sim_time) / core::kMicrosecond;
    events += r.result.events_executed;
    packets += r.result.delivered_packets;
    for (std::size_t k = 0; k < by_kind.size(); ++k) by_kind[k] += r.result.events_by_kind[k];
    layers["cc.fecn_marked"] += static_cast<double>(r.result.fecn_marked);
    layers["cc.cnps_sent"] += static_cast<double>(r.result.cnps_sent);
    layers["cc.becn_received"] += static_cast<double>(r.result.becn_received);
    for (const auto& [layer, registry_name] : kRegistryCounts) {
      layers[layer] += static_cast<double>(counter(r.result, registry_name));
    }
    layers["fabric.credit_stall_us"] +=
        static_cast<double>(counter(r.result, "fabric.credit_stall_ps")) / 1e6;
    layers["workload.messages"] += static_cast<double>(r.result.workload.messages_completed);
    if (r.result.workload.completed) {
      layers["workload.makespan_us"] += r.result.workload.makespan_us();
    }
    layers["sim.run_s." + r.label] = r.run_s;
  }
  const double endpoints = static_cast<double>(first.node_count());
  layers["topo.snapshot_s"] = snapshot_s;
  layers["topo.routing_s"] = routing_s;
  layers["fabric.build_s"] = setup_s - snapshot_s - routing_s;
  layers["fabric.bytes_per_endpoint"] =
      static_cast<double>(runs.front().rss_growth_kib) * 1024.0 / endpoints;
  layers["sim.run_s"] = run_s;
  layers["core.events"] = static_cast<double>(events);
  layers["core.events_per_pkt"] =
      packets > 0 ? static_cast<double>(events) / static_cast<double>(packets) : 0.0;
  layers["core.ns_per_event"] = events > 0 ? run_s * 1e9 / static_cast<double>(events) : 0.0;
  static constexpr std::array<const char*, core::Scheduler::kKindSlots> kKinds = {
      "other0", "packet_arrive", "link_free", "credit_update",
      "sink_free", "retry_inject", "other"};
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    layers[std::string("core.events.") + kKinds[k]] = static_cast<double>(by_kind[k]);
  }
  const double windows = layers["shard.windows"];
  layers["shard.events_per_window"] = windows > 0 ? static_cast<double>(events) / windows : 0.0;
  layers["shard.speedup"] = serial_run_s > 0.0 ? serial_run_s / run_s : 0.0;

  // Bit-level fingerprint of the simulated outputs: units of one run
  // share a seed, so every unit must reproduce it exactly.
  std::string digest;
  for (const SimRun& r : runs) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%llu/%lld/%a;",
                  static_cast<unsigned long long>(r.result.events_executed),
                  static_cast<long long>(r.delivered_bytes), r.result.total_throughput_gbps);
    digest += buf;
  }

  std::size_t n_failed = 0;
  for (const bool f : failed) n_failed += f ? 1 : 0;
  // Peak RSS first: the reference's table must not count against the unit.
  const double peak_rss_mib = static_cast<double>(status_kib("VmHWM")) / 1024.0;
  const double ref_s = reference_s();

  std::string out = "{";
  out += "\"workload\": " + json_string(name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"traced\": " + std::string(traced ? "true" : "false");
  out += ", \"sims\": " + std::to_string(runs.size());
  out += ", \"failed_sims\": " + std::to_string(n_failed);
  out += ", \"wall_s\": " + num(wall_s);
  out += ", \"setup_s\": " + num(setup_s);
  out += ", \"run_s\": " + num(run_s);
  out += ", \"sim_us\": " + num(sim_us);
  out += ", \"peak_rss_mib\": " + num(peak_rss_mib);
  out += ", \"ref_s\": " + num(ref_s);
  out += ", \"digest\": " + json_string(digest);
  out += ", \"host\": {\"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"code_version\": " + json_string(store::code_version()) + "}";
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("{\"name\": ") + json_string(checks[i].name) +
           ", \"ok\": " + (checks[i].ok ? "true" : "false") +
           ", \"detail\": " + json_string(checks[i].detail) + "}";
  }
  out += "], \"layers\": {";
  bool comma = false;
  for (const auto& [key, value] : layers) {
    out += (comma ? ", " : "") + json_string(key) + ": " + num(value);
    comma = true;
  }
  out += "}, \"spans\": [";
  const std::vector<Span>& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("{\"name\": ") + json_string(spans[i].name) +
           ", \"parent\": " + std::to_string(spans[i].parent) +
           ", \"start_s\": " + num(spans[i].start_s) + ", \"end_s\": " + num(spans[i].end_s) +
           "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
