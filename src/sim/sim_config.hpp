#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "fabric/params.hpp"
#include "ib/cc_params.hpp"
#include "topo/builders.hpp"
#include "traffic/scenario.hpp"

namespace ibsim::sim {

/// Which physical topology to instantiate.
enum class TopologyKind : std::uint8_t {
  SingleSwitch,
  FoldedClos,
  FatTree3,
  LinearChain,
  Dumbbell,
  Mesh2D,
};

/// Observability knobs of one run. Everything is off by default — the
/// simulation then never constructs a Telemetry instance. Devices keep
/// their counts either way; telemetry only reads them, and the tracer is
/// the one per-event probe (a null check when off, DESIGN.md §7).
struct TelemetrySettings {
  /// Force the counter registry on even without a trace/CSV destination
  /// (fills SimResult::counters).
  bool counters = false;
  /// Chrome trace-event JSON destination ("" = no tracing).
  std::string trace_path;
  /// Comma-separated trace categories ("cc,credits,queues,arb"; "all").
  std::string trace_categories = "all";
  /// Counter time-series CSV destination ("" = no sampler): every
  /// registry instrument, one row per sample_interval, including the
  /// lifetime sink.rcv_bytes.* gauges per node class (DESIGN.md §7).
  /// The sampler schedules its own events, so events_executed differs
  /// from an unsampled run (simulated behaviour does not).
  std::string counters_csv;
  /// Sampling cadence of the CSV time series.
  core::Time sample_interval = 50 * core::kMicrosecond;
  /// Trace ring capacity (events); oldest records drop when exceeded.
  std::int64_t trace_ring_capacity = 1 << 20;
  /// Register per-port/per-node instruments, not just fabric aggregates.
  bool detailed = false;

  [[nodiscard]] bool tracing() const { return !trace_path.empty(); }
  /// The run writes a trace or counter CSV: only a live run can do that,
  /// so run_parallel neither serves it from the store nor publishes it.
  [[nodiscard]] bool writes_files() const { return tracing() || !counters_csv.empty(); }
  [[nodiscard]] bool active() const { return counters || writes_files() || detailed; }
};

/// Application workload riding on the run (src/workload). When active,
/// the workload engine replaces the synthetic scenario as the traffic
/// source: end nodes 0..ranks-1 run the workload's ranks, the remaining
/// nodes optionally send uniform background ("victim") traffic.
struct WorkloadSettings {
  /// Workload name: "" keeps the synthetic scenario (workload off), a
  /// workload::WorkloadRegistry key runs a canned pattern, and "file"
  /// loads the DSL file named by `file`.
  std::string name;
  std::string file;
  /// Ranks the pattern builders use; 0 means every end node.
  std::int32_t ranks = 0;
  /// Payload per logical message of the canned patterns.
  std::int64_t message_bytes = 64 * 1024;
  /// Iterations of the canned patterns.
  std::int32_t iterations = 1;
  /// Per-iteration compute delay of the canned patterns.
  core::Time compute = 0;
  /// Fill non-rank end nodes with saturating uniform senders — the
  /// victim flows the CC comparisons measure.
  bool background_uniform = true;

  [[nodiscard]] bool active() const { return !name.empty(); }
};

/// Complete description of one simulation run: topology, fabric
/// calibration, CC parameters, traffic scenario, and timing.
///
/// Every field, including those of the embedded structs, has one row in
/// the field table (src/sim/config_fields.cpp), which gives its config
/// key, simulate flag and run-key line; `simulate --help` lists the
/// keys. A field added here without a row fails
/// tests/sim/config_fields_test.cpp.
struct SimConfig {
  TopologyKind topology = TopologyKind::FoldedClos;
  topo::FoldedClosParams clos = topo::FoldedClosParams::sun_dcs_648();
  topo::FatTree3Params fat_tree3;
  std::int32_t single_switch_nodes = 8;
  std::int32_t chain_switches = 4;
  std::int32_t chain_nodes_per_switch = 2;
  std::int32_t dumbbell_nodes_per_side = 4;
  std::int32_t mesh_rows = 4;
  std::int32_t mesh_cols = 4;
  std::int32_t mesh_nodes_per_switch = 4;

  fabric::FabricParams fabric;
  ib::CcParams cc = ib::CcParams::paper_table1();
  /// Reaction-point algorithm name (a ccalg::CcAlgorithmRegistry key:
  /// "iba_a10", "dcqcn", "aimd", "none"). Ignored when cc.enabled is
  /// false — the effective algorithm is "none" then.
  std::string cc_algo = "iba_a10";
  traffic::ScenarioSpec scenario;
  /// Application workload (inactive by default; replaces `scenario`
  /// when `workload.active()`).
  WorkloadSettings workload;

  /// Total simulated time and the warm-up prefix excluded from metrics.
  core::Time sim_time = 2 * core::kMillisecond;
  core::Time warmup = 500 * core::kMicrosecond;

  std::uint64_t seed = 1;

  /// Intra-run parallelism: number of fabric shards the simulation is
  /// spatially partitioned into (DESIGN.md §15). 1 (the default) runs
  /// the serial engine; check_config rejects anything below 1. Values
  /// above the switch count are clamped. The shard count is
  /// simulation-affecting (cross-shard event interleaving can
  /// legitimately differ between shard counts), so it is part of the
  /// result-store key; for a fixed shard count results are run-to-run
  /// deterministic.
  std::int32_t shards = 1;

  /// Worker threads for parallel execution: the intra-run shard workers
  /// and (via resolve_threads) sweep workers share this knob. 0 defers
  /// to IBSIM_THREADS, then hardware concurrency; precedence is
  /// CLI --threads > config-file `threads` > IBSIM_THREADS > hardware.
  /// Orchestration-only — it sets how many workers run the `shards`
  /// shards, never how many there are, and shards execute
  /// deterministically regardless of worker count — so like
  /// result_store it is excluded from the store key.
  std::int32_t threads = 0;

  /// On-disk result store directory ("" = no store). When set, the
  /// sweep pool (run_parallel, under the benches and simulate) consults
  /// the content-addressed store (src/store) before running and
  /// publishes fresh results into it, so repeated and interrupted
  /// campaigns only compute missing cells. Orchestration-only, like `threads`: it is
  /// excluded from the store key (store::canonical_config_text) — where
  /// a result is cached must not change what it is keyed as.
  std::string result_store;

  /// Observability (off by default; see TelemetrySettings).
  TelemetrySettings telemetry;

  [[nodiscard]] std::int32_t node_count() const;
  /// One line naming the topology (in its config-file spelling), node
  /// count, CC, traffic and timing.
  [[nodiscard]] std::string describe() const;
};

/// Why `config` cannot be built, or "" if it can: the first
/// precondition it breaks among those that its topology builder, the
/// switch radix limit (topo::kMaxSwitchPorts), its traffic scenario or
/// workload, CC and fabric parameters, and counter sampler assert, or a
/// shard count below 1. Front ends call it before building a
/// Simulation, so a bad key ends in an error message instead of an
/// abort. Loads the workload file when workload = file.
[[nodiscard]] std::string check_config(const SimConfig& config);

}  // namespace ibsim::sim
