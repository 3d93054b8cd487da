#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/tmax.hpp"
#include "ccalg/registry.hpp"
#include "core/assert.hpp"
#include "store/key.hpp"
#include "store/result_store.hpp"

namespace ibsim::sim {

ExperimentPreset ExperimentPreset::quick() {
  ExperimentPreset p;
  p.base.sim_time = 10 * core::kMillisecond;
  p.base.warmup = 5 * core::kMillisecond;
  p.base.cc.ccti_increase = 4;
  p.base.cc.ccti_timer = 38;  // ~150 / 4
  // Moving-hotspot axis scaled 1:4 against the paper (2.5 ms..0.25 ms
  // instead of 10 ms..1 ms), matching the 4x-faster CC loop above so
  // the lifetime-to-recovery ratio the sweep probes is preserved.
  p.lifetimes = {2500 * core::kMicrosecond, 2000 * core::kMicrosecond,
                 1500 * core::kMicrosecond, 1000 * core::kMicrosecond,
                 500 * core::kMicrosecond,  250 * core::kMicrosecond};
  p.moving_min_sim_time = 2 * core::kMillisecond;
  p.moving_lifetimes_per_run = 6;
  return p;
}

ExperimentPreset ExperimentPreset::paper() {
  ExperimentPreset p;
  p.base.sim_time = 60 * core::kMillisecond;
  p.base.warmup = 30 * core::kMillisecond;
  p.lifetimes = {10 * core::kMillisecond, 8 * core::kMillisecond, 6 * core::kMillisecond,
                 4 * core::kMillisecond,  2 * core::kMillisecond, 1 * core::kMillisecond};
  p.moving_min_sim_time = 10 * core::kMillisecond;
  p.moving_lifetimes_per_run = 10;
  return p;
}

ExperimentPreset ExperimentPreset::from_env(bool force_full) {
  const char* env = std::getenv("IBSIM_FULL");
  const bool full = force_full || (env != nullptr && env[0] == '1');
  return full ? paper() : quick();
}

std::int32_t resolve_threads(std::int32_t threads) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::int32_t hw = hw_raw == 0 ? 4 : static_cast<std::int32_t>(hw_raw);
  if (threads > 0) return threads;
  // CI (and users pinning a sweep to a core budget) override the
  // hardware default without touching every preset. A malformed value
  // would silently serialize or oversubscribe a many-hour sweep, so it
  // is a hard error, not a fallthrough.
  if (const char* env = std::getenv("IBSIM_THREADS"); env != nullptr) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "error: IBSIM_THREADS='%s' is not an integer\n", env);
      std::exit(2);
    }
    if (v <= 0) {
      std::fprintf(stderr,
                   "error: IBSIM_THREADS=%ld must be a positive thread count "
                   "(unset it to use hardware concurrency)\n",
                   v);
      std::exit(2);
    }
    // Oversubscribing cores only adds scheduler noise to a CPU-bound
    // sweep; clamp to what the machine can actually run.
    return v > hw ? hw : static_cast<std::int32_t>(v);
  }
  return hw;
}

double SweepReport::utilization() const {
  if (workers.empty() || wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const SweepWorkerStats& w : workers) busy += w.busy_seconds;
  return busy / (wall_seconds * static_cast<double>(workers.size()));
}

std::vector<SimResult> run_parallel(const std::vector<SimConfig>& configs,
                                    std::int32_t threads, SweepReport* report) {
  std::vector<SimResult> results(configs.size());
  if (report != nullptr) *report = SweepReport{};
  if (configs.empty()) return results;
  const auto sweep_start = std::chrono::steady_clock::now();
  // One knob surface (DESIGN.md §15): a config-file `threads` key steers
  // the pool too, below an explicit harness argument.
  const auto max_workers = static_cast<std::size_t>(
      resolve_threads(threads > 0 ? threads : configs.front().threads));

  const std::string& store_dir = configs.front().result_store;
  std::shared_ptr<store::ResultStore> store;
  if (!store_dir.empty()) store = store::StoreRegistry::instance().open(store_dir);
  // A run that writes a trace or counter CSV skips the store both ways.
  const auto stored = [&](std::size_t i) {
    return store != nullptr && !configs[i].telemetry.writes_files();
  };

  // Key every config and serve store hits here. Each remaining key is
  // simulated once, for the first config that names it; its duplicates
  // copy that slot afterwards.
  std::vector<std::string> keys(configs.size());
  std::vector<std::size_t> runs;                            // slots to simulate
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (duplicate, its run's slot)
  std::unordered_map<std::string, std::size_t> first_run;   // key -> slot that runs it
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    IBSIM_ASSERT(configs[i].result_store == store_dir,
                 "run_parallel: every config must name the same result_store");
    keys[i] = store::run_key(configs[i]);
    if (stored(i) && store->get(keys[i], &results[i])) {
      ++hits;
      continue;
    }
    const auto [it, first] = first_run.emplace(keys[i], i);
    if (first) {
      runs.push_back(i);
    } else {
      copies.emplace_back(i, it->second);
    }
  }

  std::vector<SweepWorkerStats> workers(std::min(max_workers, runs.size()));
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t r = cursor++; r < runs.size(); r = cursor++) {
        const std::size_t i = runs[r];
        const auto start = std::chrono::steady_clock::now();
        results[i] = run_sim(configs[i]);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        // Publish after timing: busy time is simulation work only.
        if (stored(i)) {
          store->put(keys[i], store::canonical_config_text(configs[i]), results[i], wall);
        }
        workers[w].busy_seconds += wall;
        ++workers[w].runs;
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (const auto& [slot, source] : copies) results[slot] = results[source];

  if (report != nullptr) {
    report->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start).count();
    report->workers = std::move(workers);
    if (store != nullptr) {
      report->store_hits = hits;
      report->store_misses = configs.size() - hits;
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

Table2Result run_table2(const ExperimentPreset& preset) {
  SimConfig base = preset.base_config();
  base.scenario.fraction_b = 0.0;
  base.scenario.fraction_c_of_rest = 0.8;  // 80% C / 20% V
  base.scenario.n_hotspots = 8;

  std::vector<SimConfig> configs;
  for (const bool c_active : {false, true}) {
    for (const bool cc_on : {false, true}) {
      SimConfig config = base;
      config.scenario.c_nodes_active = c_active;
      config.cc.enabled = cc_on;
      configs.push_back(config);
    }
  }
  const std::vector<SimResult> r = run_parallel(configs);

  Table2Result out;
  out.no_hotspot_off = r[0].all_rcv_gbps;
  out.no_hotspot_on = r[1].all_rcv_gbps;
  out.hotspot_rcv_off = r[2].hotspot_rcv_gbps;
  out.non_hotspot_rcv_off = r[2].non_hotspot_rcv_gbps;
  out.total_throughput_off = r[2].total_throughput_gbps;
  out.hotspot_rcv_on = r[3].hotspot_rcv_gbps;
  out.non_hotspot_rcv_on = r[3].non_hotspot_rcv_gbps;
  out.total_throughput_on = r[3].total_throughput_gbps;
  return out;
}

analysis::TextTable format_table2(const Table2Result& t) {
  analysis::TextTable table({"Metric", "Gbps"});
  table.add_section("No hotspots, no CC");
  table.add_kv("Avg. receive rate", t.no_hotspot_off);
  table.add_section("No hotspots, CC on");
  table.add_kv("Avg. receive rate", t.no_hotspot_on);
  table.add_section("Hotspots, no CC");
  table.add_kv("Hotspots avg. rcv.", t.hotspot_rcv_off);
  table.add_kv("Non-hotspots avg. rcv", t.non_hotspot_rcv_off);
  table.add_section("Hotspots, CC on");
  table.add_kv("Hotspots avg. rcv.", t.hotspot_rcv_on);
  table.add_kv("Non-hotspots avg. rcv", t.non_hotspot_rcv_on);
  table.add_section("Total network throughput, hotspots");
  table.add_kv("Without CC", t.total_throughput_off);
  table.add_kv("With CC", t.total_throughput_on);
  return table;
}

// ---------------------------------------------------------------------------
// Figures 5-8 (windy forest)
// ---------------------------------------------------------------------------

WindyFigure run_windy_figure(const ExperimentPreset& preset, double fraction_b) {
  std::vector<SimConfig> configs;
  for (const double p : preset.p_values) {
    for (const bool cc_on : {false, true}) {
      SimConfig config = preset.base_config();
      config.scenario.fraction_b = fraction_b;
      config.scenario.p = p;
      config.scenario.fraction_c_of_rest = 0.8;
      config.scenario.n_hotspots = 8;
      config.cc.enabled = cc_on;
      configs.push_back(config);
    }
  }
  const std::vector<SimResult> results = run_parallel(configs);

  WindyFigure fig;
  fig.fraction_b = fraction_b;
  fig.non_hotspot_off.name = "nonhot_cc_off";
  fig.non_hotspot_on.name = "nonhot_cc_on";
  fig.tmax.name = "tmax";
  fig.hotspot_off.name = "hot_cc_off";
  fig.hotspot_on.name = "hot_cc_on";

  analysis::Series total_off{"total_cc_off", {}, {}};
  analysis::Series total_on{"total_cc_on", {}, {}};

  const std::int32_t n = preset.base.node_count();
  const auto n_b = static_cast<std::int32_t>(std::llround(fraction_b * n));
  const std::int32_t rest = n - n_b;
  const auto n_c = static_cast<std::int32_t>(std::llround(0.8 * rest));
  const std::int32_t n_v = rest - n_c;

  for (std::size_t i = 0; i < preset.p_values.size(); ++i) {
    const double p_pct = preset.p_values[i] * 100.0;
    const SimResult& off = results[2 * i];
    const SimResult& on = results[2 * i + 1];
    fig.non_hotspot_off.add(p_pct, off.non_hotspot_rcv_gbps);
    fig.non_hotspot_on.add(p_pct, on.non_hotspot_rcv_gbps);
    fig.hotspot_off.add(p_pct, off.hotspot_rcv_gbps);
    fig.hotspot_on.add(p_pct, on.hotspot_rcv_gbps);
    total_off.add(p_pct, off.total_throughput_gbps);
    total_on.add(p_pct, on.total_throughput_gbps);

    analysis::TmaxInputs tin;
    tin.n_nodes = n;
    tin.n_b = n_b;
    tin.n_v = n_v;
    tin.p = preset.p_values[i];
    fig.tmax.add(p_pct, analysis::tmax_gbps(tin));
  }
  fig.improvement = analysis::ratio_series("cc_improvement", total_on, total_off);
  return fig;
}

void print_windy_figure(const WindyFigure& fig) {
  std::printf("== Windy forest, %.0f%% B nodes ==\n", fig.fraction_b * 100.0);
  std::printf("-- (a) avg receive rate, non-hotspots (Gb/s) --\n");
  analysis::print_series("p (%)", {&fig.non_hotspot_off, &fig.non_hotspot_on, &fig.tmax});
  std::printf("-- (b) avg receive rate, hotspots (Gb/s) --\n");
  analysis::print_series("p (%)", {&fig.hotspot_off, &fig.hotspot_on});
  std::printf("-- (c) total network throughput improvement by enabling CC (x) --\n");
  analysis::print_series("p (%)", {&fig.improvement});
  std::printf("peak improvement: %.1fx at p=%.0f%%\n\n", fig.improvement.max_y(),
              fig.improvement.x_of_max_y());
}

void write_windy_csv(const WindyFigure& fig, const std::string& prefix) {
  analysis::write_csv(prefix + "_a_nonhotspot.csv", "p_pct",
                      {&fig.non_hotspot_off, &fig.non_hotspot_on, &fig.tmax});
  analysis::write_csv(prefix + "_b_hotspot.csv", "p_pct",
                      {&fig.hotspot_off, &fig.hotspot_on});
  analysis::write_csv(prefix + "_c_improvement.csv", "p_pct", {&fig.improvement});
}

namespace {
/// Time a moving-hotspot cell by its hotspot lifetime: simulate a fixed
/// number of hotspot periods, with a floor so the shortest lifetimes
/// still measure a meaningful window, after a warmup of at most one
/// lifetime.
void time_moving_cell(const ExperimentPreset& preset, core::Time lifetime, SimConfig* config) {
  config->scenario.hotspot_lifetime = lifetime;
  core::Time sim = lifetime * preset.moving_lifetimes_per_run;
  if (sim < preset.moving_min_sim_time) sim = preset.moving_min_sim_time;
  config->sim_time = sim;
  config->warmup = lifetime < preset.base.warmup ? lifetime : preset.base.warmup;
}
}  // namespace

// ---------------------------------------------------------------------------
// CC-algorithm comparison
// ---------------------------------------------------------------------------

CcCompareResult run_cc_compare(const ExperimentPreset& preset,
                               const std::vector<std::string>& algos) {
  CcCompareResult out;
  out.algos = algos.empty() ? ccalg::CcAlgorithmRegistry::instance().names() : algos;
  for (const std::string& algo : out.algos) {
    IBSIM_ASSERT(ccalg::CcAlgorithmRegistry::instance().contains(algo),
                 "run_cc_compare: unknown algorithm name");
  }

  // The three congestion-tree kinds of the paper's taxonomy, at the
  // preset's scale. Traffic, seeds and topology are identical across
  // algorithms — only the reaction point differs.
  struct Spec {
    const char* label;
    traffic::ScenarioSpec scenario;
    bool moving;
  };
  std::vector<Spec> specs;
  {
    Spec silent{"silent forest (B=0%, 8 hotspots)", {}, false};
    silent.scenario.fraction_b = 0.0;
    silent.scenario.fraction_c_of_rest = 0.8;
    silent.scenario.n_hotspots = 8;
    specs.push_back(silent);

    Spec windy{"windy forest (B=100%, p=50%)", {}, false};
    windy.scenario.fraction_b = 1.0;
    windy.scenario.p = 0.5;
    windy.scenario.n_hotspots = 8;
    specs.push_back(windy);

    Spec moving{"moving silent forest (B=0%)", {}, true};
    moving.scenario.fraction_b = 0.0;
    moving.scenario.fraction_c_of_rest = 0.8;
    moving.scenario.n_hotspots = 8;
    specs.push_back(moving);
  }

  std::vector<SimConfig> configs;
  for (const Spec& spec : specs) {
    for (const std::string& algo : out.algos) {
      SimConfig config = preset.base_config();
      config.scenario = spec.scenario;
      config.cc.enabled = true;
      config.cc_algo = algo;
      if (spec.moving) {
        IBSIM_ASSERT(!preset.lifetimes.empty(), "preset needs moving lifetimes");
        time_moving_cell(preset, preset.lifetimes[preset.lifetimes.size() / 2], &config);
      }
      configs.push_back(config);
    }
  }
  std::vector<SimResult> results = run_parallel(configs);

  std::size_t next = 0;
  for (const Spec& spec : specs) {
    CcCompareScenario scenario;
    scenario.label = spec.label;
    for (std::size_t a = 0; a < out.algos.size(); ++a) {
      scenario.results.push_back(std::move(results[next++]));
    }
    out.scenarios.push_back(std::move(scenario));
  }
  return out;
}

analysis::TextTable format_cc_compare(const CcCompareResult& result) {
  analysis::TextTable table(
      {"Algorithm", "Hotspot rcv", "Victim rcv", "All rcv", "Total Gb/s"});
  for (const CcCompareScenario& scenario : result.scenarios) {
    table.add_section(scenario.label);
    for (std::size_t a = 0; a < result.algos.size(); ++a) {
      const SimResult& r = scenario.results[a];
      table.add_row({result.algos[a], analysis::fmt(r.hotspot_rcv_gbps),
                     analysis::fmt(r.non_hotspot_rcv_gbps), analysis::fmt(r.all_rcv_gbps),
                     analysis::fmt(r.total_throughput_gbps, 1)});
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Figures 9-10 (moving hotspots)
// ---------------------------------------------------------------------------

namespace {
MovingCurve run_moving(const ExperimentPreset& preset, const traffic::ScenarioSpec& scenario,
                       std::string label) {
  std::vector<SimConfig> configs;
  for (const core::Time lifetime : preset.lifetimes) {
    for (const bool cc_on : {false, true}) {
      SimConfig config = preset.base_config();
      config.scenario = scenario;
      config.cc.enabled = cc_on;
      time_moving_cell(preset, lifetime, &config);
      configs.push_back(config);
    }
  }
  const std::vector<SimResult> results = run_parallel(configs);

  MovingCurve curve;
  curve.label = std::move(label);
  curve.off.name = "all_cc_off";
  curve.on.name = "all_cc_on";
  for (std::size_t i = 0; i < preset.lifetimes.size(); ++i) {
    const double lifetime_ms = static_cast<double>(preset.lifetimes[i]) /
                               static_cast<double>(core::kMillisecond);
    curve.off.add(lifetime_ms, results[2 * i].all_rcv_gbps);
    curve.on.add(lifetime_ms, results[2 * i + 1].all_rcv_gbps);
  }
  return curve;
}
}  // namespace

MovingCurve run_moving_silent(const ExperimentPreset& preset, double fraction_v) {
  traffic::ScenarioSpec scenario;
  scenario.fraction_b = 0.0;
  scenario.fraction_c_of_rest = 1.0 - fraction_v;
  scenario.n_hotspots = 8;
  char label[64];
  std::snprintf(label, sizeof(label), "moving silent, %.0f%% V / %.0f%% C",
                fraction_v * 100.0, (1.0 - fraction_v) * 100.0);
  return run_moving(preset, scenario, label);
}

MovingCurve run_moving_windy(const ExperimentPreset& preset, double p) {
  traffic::ScenarioSpec scenario;
  scenario.fraction_b = 1.0;
  scenario.p = p;
  scenario.n_hotspots = 8;
  char label[64];
  std::snprintf(label, sizeof(label), "moving windy, 100%% B, p=%.0f%%", p * 100.0);
  return run_moving(preset, scenario, label);
}

void print_moving_curve(const MovingCurve& curve) {
  std::printf("== %s ==\n", curve.label.c_str());
  std::printf("-- avg receive rate, all nodes (Gb/s) vs hotspot lifetime (ms) --\n");
  analysis::print_series("lifetime_ms", {&curve.off, &curve.on});
  std::printf("\n");
}

void write_moving_csv(const MovingCurve& curve, const std::string& prefix) {
  analysis::write_csv(prefix + ".csv", "lifetime_ms", {&curve.off, &curve.on});
}

}  // namespace ibsim::sim
