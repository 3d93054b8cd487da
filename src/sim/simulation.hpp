#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/cc_manager.hpp"
#include "core/scheduler.hpp"
#include "fabric/fabric.hpp"
#include "sim/shard_engine.hpp"
#include "sim/sim_config.hpp"
#include "sim/snapshot.hpp"
#include "topo/partition.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "traffic/scenario.hpp"

namespace ibsim::workload {
class WorkloadEngine;
}  // namespace ibsim::workload

namespace ibsim::sim {

/// Application completion times of a workload run (empty/ran == false
/// when the config had no workload). Times are raw scheduler timestamps
/// so cross-run comparisons are bit-exact; entries that did not finish
/// inside the simulated window hold core::kTimeNever.
struct WorkloadResult {
  bool ran = false;        ///< a workload was configured and installed
  bool completed = false;  ///< every op finished within sim_time
  core::Time makespan = core::kTimeNever;
  std::vector<core::Time> rank_finish;
  std::vector<core::Time> phase_finish;
  std::uint64_t messages_completed = 0;
  std::uint64_t messages_total = 0;

  /// Makespan in microseconds, or -1 when the workload did not finish.
  [[nodiscard]] double makespan_us() const {
    return completed ? static_cast<double>(makespan) / core::kMicrosecond : -1.0;
  }
};

/// Aggregate outcome of one simulation run — the numbers the paper's
/// tables and figures are built from.
struct SimResult {
  double hotspot_rcv_gbps = 0.0;      ///< avg receive rate of hotspot nodes
  double non_hotspot_rcv_gbps = 0.0;  ///< avg receive rate of the rest
  double all_rcv_gbps = 0.0;          ///< avg over every node (figs 9-10)
  double total_throughput_gbps = 0.0; ///< sum of all receive rates
  double jain_non_hotspot = 1.0;

  double median_latency_us = 0.0;
  double p99_latency_us = 0.0;

  std::uint64_t fecn_marked = 0;
  std::uint64_t cnps_sent = 0;
  std::uint64_t becn_received = 0;
  std::int64_t delivered_bytes = 0;
  std::uint64_t events_executed = 0;
  /// events_executed broken down by kind: slots 1..5 are the fabric
  /// kinds (PacketArrive, LinkFree, CreditUpdate, SinkFree, RetryInject),
  /// slot 0 is kind-0 driver events, slot 6 everything else (timers,
  /// samplers, hotspot moves). See core::Scheduler::kKindSlots.
  std::array<std::uint64_t, core::Scheduler::kKindSlots> events_by_kind{};
  /// Packets handed to sinks (lifetime): the denominator of the
  /// events-per-delivered-packet figure the perf harness reports.
  std::uint64_t delivered_packets = 0;

  /// End-of-run counter values (empty unless telemetry was active).
  std::map<std::string, std::int64_t> counters;

  /// Application completion times (ran == false without a workload).
  WorkloadResult workload;
};

/// One fully assembled simulation: topology, routing, CC, fabric,
/// scenario, metrics — built from a SimConfig, run once.
class Simulation {
 public:
  /// Build from `config` onto a topology/routing snapshot of its own,
  /// freed with the Simulation.
  explicit Simulation(const SimConfig& config);

  /// Build onto a pre-computed snapshot, so runs on one fabric can share
  /// a single immutable topology and LFT set. The snapshot must match
  /// the config's topology description; results are bit-identical to a
  /// run on its own snapshot.
  Simulation(const SimConfig& config, std::shared_ptr<const RoutingSnapshot> snapshot);

  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run warmup + measurement window; returns the collected result.
  SimResult run();

  // Component access for tests and custom harnesses.
  [[nodiscard]] core::Scheduler& sched() { return sched_; }
  [[nodiscard]] fabric::Fabric& fabric() { return *fabric_; }
  /// The synthetic scenario; only valid when no workload is active.
  [[nodiscard]] traffic::Scenario& scenario() { return *scenario_; }
  /// The workload engine; null when the config has no workload.
  [[nodiscard]] workload::WorkloadEngine* workload_engine() { return workload_.get(); }
  [[nodiscard]] const topo::Topology& topology() const { return snapshot_->topology->topo; }
  [[nodiscard]] const topo::RoutingTables& routing() const { return snapshot_->tables; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// Effective shard count this run executes with (1 = serial engine;
  /// may be lower than config().shards after clamping or a documented
  /// serial fallback — tracing, CSV sampling, workloads).
  [[nodiscard]] std::int32_t effective_shards() const {
    return engine_ != nullptr ? static_cast<std::int32_t>(shard_scheds_.size()) : 1;
  }

  /// The run's observability root; null when telemetry is inactive.
  [[nodiscard]] telemetry::Telemetry* telemetry() { return telemetry_.get(); }
  [[nodiscard]] const telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

 private:
  /// The result over the measurement window that opened at the
  /// configured warmup, with rates referenced to `now`. run() passes the
  /// configured sim_time so rate denominators never depend on when the
  /// last bookkeeping event happened to fire (the fabric fast path
  /// elides some of those, and results must be bit-identical fast/slow).
  [[nodiscard]] SimResult snapshot_at(core::Time now) const;

  /// Decide the shard count, build per-shard schedulers and the fabric
  /// ShardLayout. Returns null (serial) unless sharding is enabled,
  /// possible, and compatible with the run's features.
  const fabric::Fabric::ShardLayout* prepare_shards(const topo::Topology& topo);

  /// Set every instrument from current state: the fabric's, plus the
  /// bytes delivered to each node class. Runs before every CSV row and
  /// every snapshot while telemetry is active.
  void refresh_gauges() const;

  SimConfig config_;
  core::Scheduler sched_;  ///< global scheduler (the only one when serial)
  std::shared_ptr<const RoutingSnapshot> snapshot_;  // owns topology + routing
  std::unique_ptr<cc::CcManager> ccm_;
  // Sharded-engine state (empty when serial). Declared before fabric_:
  // the fabric's ShardLayout references the plan and schedulers.
  topo::ShardPlan shard_plan_;
  std::vector<std::unique_ptr<core::Scheduler>> shard_scheds_;
  fabric::Fabric::ShardLayout shard_layout_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<ShardEngine> engine_;
  std::unique_ptr<traffic::Scenario> scenario_;
  std::unique_ptr<workload::WorkloadEngine> workload_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::unique_ptr<telemetry::CounterSampler> sampler_;
  /// The hotspot node class of every receive figure: the initial
  /// hotspots, or the workload's rank nodes.
  std::vector<ib::NodeId> hotspot_nodes_;
  /// Each node's HCA delivered-byte count when the measurement window
  /// opened; the window's receive volume is the growth since.
  std::vector<std::int64_t> window_base_;
  telemetry::CounterRegistry::Handle g_rcv_hotspot_;
  telemetry::CounterRegistry::Handle g_rcv_non_hotspot_;
  bool ran_ = false;
};

/// Build, run and summarise in one call.
[[nodiscard]] SimResult run_sim(const SimConfig& config);

}  // namespace ibsim::sim
