#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"
#include "core/shard.hpp"
#include "core/time.hpp"
#include "fabric/fabric.hpp"

namespace ibsim::sim {

/// Minimum simulated time a boundary crossing takes: every cross-shard
/// message created by an event at time t lands at t + lookahead or
/// later, so a window ending before t_min + lookahead can never receive
/// a message into its own past. Packets cross at link_delay +
/// rx_pipeline (switch or HCA), credits at link_delay + credit_delay;
/// the lookahead is the smallest of the three and is static — link rate
/// scaling changes only serialization, never these delays.
[[nodiscard]] core::Time shard_lookahead(const fabric::FabricParams& params);

/// Conservative-lookahead window loop over the per-shard schedulers of a
/// sharded Fabric (DESIGN.md §15). Each run_until call executes windows
/// [T, W] with W = min(t_min + lookahead - 1, until, next_global - 1):
/// all shards run their events up to W in parallel, then a barrier, then
/// each shard drains the mailboxes addressed to it, then the next window
/// is planned. Global events (hotspot moves) run single-threaded between
/// windows on the global scheduler.
class ShardEngine {
 public:
  struct Stats {
    std::uint64_t windows = 0;        ///< barrier rounds executed
    std::uint64_t global_events = 0;  ///< events run on the global scheduler
  };

  /// `fabric` must have been built with a ShardLayout whose schedulers
  /// are `shards`; `global` runs non-fabric events. `worker_threads` is
  /// clamped to [1, shards.size()]; shards are dealt to workers
  /// round-robin, and worker count never affects results.
  ShardEngine(fabric::Fabric* fabric, core::Scheduler* global,
              std::vector<core::Scheduler*> shards, core::Time lookahead,
              std::int32_t worker_threads);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Run every shard (and the global scheduler) up to and including
  /// `until`. Mailboxes are empty on return: all boundary crossings
  /// produced by executed events have been delivered.
  void run_until(core::Time until);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Sum of executed() over the shard schedulers plus the global one.
  [[nodiscard]] std::uint64_t total_executed() const;
  [[nodiscard]] std::array<std::uint64_t, core::Scheduler::kKindSlots> total_executed_by_kind()
      const;
  /// Cross-shard events injected at drains (sched.shard.absorbed gauge).
  [[nodiscard]] std::uint64_t total_absorbed() const;

 private:
  /// Advance the global scheduler and compute the next window end.
  /// Returns false when nothing at or below `until` remains anywhere.
  bool plan_window(core::Time until);
  void worker_body(std::int32_t tid, core::Time until);

  fabric::Fabric* fabric_;
  core::Scheduler* global_;
  std::vector<core::Scheduler*> shards_;
  core::Time lookahead_;
  std::int32_t workers_;
  core::SpinBarrier barrier_;

  // Window state published by the coordinator (worker 0) at the release
  // barrier and read by all workers. Atomics are formally required for
  // the cross-thread handoff; the barrier supplies the ordering.
  std::atomic<core::Time> window_end_{0};
  std::atomic<bool> done_{false};

  Stats stats_;
};

}  // namespace ibsim::sim
