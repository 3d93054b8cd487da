#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep_service.hpp"

namespace ibsim::sim {

/// Scale preset shared by the paper-reproduction benchmarks. The paper
/// simulates 0.1 s timeslots on the 648-node fabric; throughput ratios
/// converge orders of magnitude earlier, so the default ("quick") preset
/// keeps the full topology but shortens the measured window, and scales
/// the moving-hotspot axis together with the CCTI timer so the
/// lifetime-to-recovery-time ratio matches the paper's sweep.
/// `ExperimentPreset::from_env()` honours IBSIM_FULL=1 for paper-scale
/// windows.
struct ExperimentPreset {
  /// Every cell's starting config: topology, the static-hotspot window
  /// (Table II, figures 5-8), CC control-loop scale, seed, fast path and
  /// result store. The quick preset runs the whole CC loop 4x faster
  /// (CCTI_Increase 4, CCTI_Timer 150/4) with hotspot lifetimes scaled
  /// by the same factor, so the convergence-to-window and
  /// lifetime-to-recovery ratios match the paper within windows that
  /// fit a laptop run; the paper preset uses the exact Table I values.
  SimConfig base;

  std::vector<double> p_values = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  // Moving-hotspot experiments (figures 9-10).
  std::vector<core::Time> lifetimes;   ///< decreasing hotspot lifetimes
  core::Time moving_min_sim_time = 0;
  std::int32_t moving_lifetimes_per_run = 6;  ///< simulated hotspot periods

  [[nodiscard]] static ExperimentPreset quick();
  [[nodiscard]] static ExperimentPreset paper();
  /// quick() unless IBSIM_FULL=1 (or a bench was passed --full).
  [[nodiscard]] static ExperimentPreset from_env(bool force_full = false);

  [[nodiscard]] SimConfig base_config() const { return base; }
};

/// Resolve a sweep's worker count: an explicit positive `threads` wins,
/// else the IBSIM_THREADS environment variable (CI pins sweeps with it),
/// else hardware concurrency. IBSIM_THREADS must be a plain positive
/// integer — garbage, negative or zero values abort with a clear error
/// instead of silently falling back — and is clamped to the machine's
/// hardware concurrency.
[[nodiscard]] std::int32_t resolve_threads(std::int32_t threads);

/// Per-sweep execution report filled by run_parallel.
struct SweepReport {
  double wall_seconds = 0.0;
  /// One entry per pool worker the sweep started (none when every run
  /// came from the store).
  std::vector<SweepWorkerStats> workers;

  /// Result-store outcome: runs served from the on-disk store versus
  /// runs that were not. Both zero when the configs name no
  /// result_store.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;

  /// Mean fraction of the pool's wall time the workers spent running
  /// simulations (1.0 = perfectly balanced, no idle tails).
  [[nodiscard]] double utilization() const;
};

/// Run many independent simulations concurrently — the sweep-level
/// parallelism the harness uses. The configs go to a SweepService as
/// one job (sim/sweep_service.hpp): idle workers claim the next queued
/// run, so skewed run times cannot strand long tails on one thread the
/// way a static partition does, and configs with one run key simulate
/// once. Determinism is preserved exactly: seeding is per-config, every
/// run executes on its own scheduler and snapshot, and results land in
/// slots positionally matched to `configs`.
///
/// The worker count is `threads` if positive, else the first config's
/// `threads`, else resolve_threads' default. Every config must name the
/// same result_store. With one, cached runs fill their slots without
/// scheduling and fresh runs are published after completion (runs that
/// write a trace or counter CSV always simulate and are never stored). An
/// interrupted sweep rerun therefore computes only the missing cells,
/// and a fully warm rerun starts no worker — the store's serialization
/// is bit-exact, so callers cannot tell a cached result from a fresh
/// one.
[[nodiscard]] std::vector<SimResult> run_parallel(const std::vector<SimConfig>& configs,
                                                  std::int32_t threads = 0,
                                                  SweepReport* report = nullptr);

// ---------------------------------------------------------------------------
// Table II: the silent forest of congestion trees.
// ---------------------------------------------------------------------------
struct Table2Result {
  double no_hotspot_off = 0.0;       ///< avg rcv, V nodes only, CC off
  double no_hotspot_on = 0.0;        ///< avg rcv, V nodes only, CC on
  double hotspot_rcv_off = 0.0;      ///< hotspots avg rcv, CC off
  double non_hotspot_rcv_off = 0.0;  ///< non-hotspots avg rcv, CC off
  double hotspot_rcv_on = 0.0;       ///< hotspots avg rcv, CC on
  double non_hotspot_rcv_on = 0.0;   ///< non-hotspots avg rcv, CC on
  double total_throughput_off = 0.0;
  double total_throughput_on = 0.0;
};

[[nodiscard]] Table2Result run_table2(const ExperimentPreset& preset);
[[nodiscard]] analysis::TextTable format_table2(const Table2Result& result);

// ---------------------------------------------------------------------------
// Figures 5-8: the windy forest, one figure per B-node fraction.
// ---------------------------------------------------------------------------
struct WindyFigure {
  double fraction_b = 0.0;
  analysis::Series non_hotspot_off;  ///< fig (a), CC off
  analysis::Series non_hotspot_on;   ///< fig (a), CC on
  analysis::Series tmax;             ///< fig (a), analytic ceiling
  analysis::Series hotspot_off;      ///< fig (b), CC off
  analysis::Series hotspot_on;       ///< fig (b), CC on
  analysis::Series improvement;      ///< fig (c), total-throughput ratio on/off
};

[[nodiscard]] WindyFigure run_windy_figure(const ExperimentPreset& preset, double fraction_b);
void print_windy_figure(const WindyFigure& figure);
/// Write the three sub-figures as CSV files with the given path prefix.
void write_windy_csv(const WindyFigure& figure, const std::string& prefix);

// ---------------------------------------------------------------------------
// CC-algorithm comparison: the paper's congestion-tree taxonomy (silent /
// windy / moving forests) rerun once per reaction-point algorithm.
// ---------------------------------------------------------------------------
struct CcCompareScenario {
  std::string label;               ///< "silent forest", "windy forest p=50%", ...
  std::vector<SimResult> results;  ///< positionally matched to CcCompareResult::algos
};

struct CcCompareResult {
  std::vector<std::string> algos;  ///< registry names, in run order
  std::vector<CcCompareScenario> scenarios;
};

/// Run the three taxonomy scenarios once per algorithm (identical seeds
/// and traffic across algorithms — only the reaction point differs).
/// Empty `algos` means every registered algorithm.
[[nodiscard]] CcCompareResult run_cc_compare(const ExperimentPreset& preset,
                                             const std::vector<std::string>& algos = {});

/// One section per scenario; rows are algorithms, columns the hotspot /
/// victim receive rates and the total network throughput.
[[nodiscard]] analysis::TextTable format_cc_compare(const CcCompareResult& result);

// ---------------------------------------------------------------------------
// Figures 9-10: moving congestion trees over decreasing hotspot lifetime.
// ---------------------------------------------------------------------------
struct MovingCurve {
  std::string label;
  analysis::Series off;  ///< avg rcv all nodes, CC off, vs lifetime (ms)
  analysis::Series on;   ///< avg rcv all nodes, CC on
};

/// Figure 9: silent trees (B = 0) with moving hotspots, parameterised by
/// the V-node share (paper: 20% and 60%).
[[nodiscard]] MovingCurve run_moving_silent(const ExperimentPreset& preset, double fraction_v);

/// Figure 10: pure windy trees (100% B) with moving hotspots, for one p.
[[nodiscard]] MovingCurve run_moving_windy(const ExperimentPreset& preset, double p);

void print_moving_curve(const MovingCurve& curve);
void write_moving_csv(const MovingCurve& curve, const std::string& prefix);

}  // namespace ibsim::sim
