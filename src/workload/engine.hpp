#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "fabric/fabric.hpp"
#include "fabric/interfaces.hpp"
#include "ib/types.hpp"
#include "traffic/generator.hpp"
#include "workload/spec.hpp"

namespace ibsim::workload {

/// Completion-time view of a running (or finished) workload. Times are
/// scheduler timestamps so comparisons across runs are bit-exact;
/// unfinished entries hold core::kTimeNever.
struct WorkloadProgress {
  bool complete = false;
  /// Completion time of the last op (kTimeNever until complete; 0 for
  /// the empty workload, which completes before anything runs).
  core::Time makespan = core::kTimeNever;
  /// Per rank: time its last op (sent or received) completed.
  std::vector<core::Time> rank_finish;
  /// Per phase: time the phase's last op completed.
  std::vector<core::Time> phase_finish;
  std::uint64_t messages_completed = 0;
  std::uint64_t messages_total = 0;
  std::int64_t bytes_completed = 0;
};

/// Drives a WorkloadSpec through the fabric: one TrafficSource per rank
/// injects MTU-sized packets of ops whose dependencies have completed,
/// and the engine observes sink deliveries to resolve dependencies —
/// so congestion on any op's path delays every op downstream of it.
/// Optionally fills the remaining (non-rank) end nodes with uniform
/// background senders, the victim flows of the CC experiments.
///
/// Determinism: per-rank ready queues are scanned in insertion order,
/// dependents resolve in op-id order, and the only randomness (the
/// background senders) uses named Rng forks — so a workload run is a
/// pure function of (spec, config, seed), independent of wall clock,
/// thread placement and whether the topology snapshot is shared.
class WorkloadEngine final : public fabric::SinkObserver {
 public:
  struct Options {
    /// Attach saturating uniform B-node senders (p = 0) to every end
    /// node not running a rank.
    bool background_uniform = false;
    /// Injection capacity of those background senders.
    double background_gbps = 13.5;
  };

  /// `spec` must satisfy WorkloadSpec::validate().
  WorkloadEngine(WorkloadSpec spec, const Options& options, core::Rng rng);
  ~WorkloadEngine() override;

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  /// Attach rank sources and background generators, and install this
  /// engine as the sink observer of every rank node's HCA, where
  /// application packets drain. Rank r runs on end node r; the fabric
  /// must have at least spec.ranks end nodes.
  void install(fabric::Fabric& fabric);

  void on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) override;

  [[nodiscard]] WorkloadProgress progress() const;
  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }
  /// End nodes running ranks (node i == rank i).
  [[nodiscard]] const std::vector<ib::NodeId>& rank_nodes() const { return rank_nodes_; }

 private:
  /// TrafficSource adapter: the HCA of rank r polls the engine.
  class RankSource final : public fabric::TrafficSource {
   public:
    RankSource(WorkloadEngine* engine, std::int32_t rank) : engine_(engine), rank_(rank) {}
    [[nodiscard]] Poll poll(core::Time now) override {
      return engine_->poll_rank(rank_, now);
    }

   private:
    WorkloadEngine* engine_;
    std::int32_t rank_;
  };

  /// Runtime state of one op.
  struct OpRun {
    std::int32_t deps_left = 0;
    /// When the op may start injecting; kTimeNever while deps pend.
    core::Time ready_at = core::kTimeNever;
    std::int64_t injected = 0;
    std::int64_t delivered = 0;
    core::Time completed_at = core::kTimeNever;
  };

  struct RankState {
    /// Ready (deps resolved) but not fully injected ops, FIFO order.
    std::vector<std::int32_t> queue;
  };

  [[nodiscard]] fabric::TrafficSource::Poll poll_rank(std::int32_t rank, core::Time now);
  void complete_op(std::int32_t op_id, core::Time now);

  WorkloadSpec spec_;
  Options options_;
  core::Rng rng_;

  std::vector<OpRun> run_;
  std::vector<std::vector<std::int32_t>> dependents_;  ///< op -> ops waiting on it
  std::vector<RankState> ranks_;
  std::vector<ib::NodeId> rank_nodes_;

  fabric::Fabric* fabric_ = nullptr;
  ib::PacketArena* arena_ = nullptr;
  std::vector<const cc::FlowGate*> gate_;  ///< per rank; null when CC is off
  std::vector<std::unique_ptr<RankSource>> sources_;
  std::vector<std::unique_ptr<traffic::BNodeGenerator>> background_;

  // Progress accounting.
  std::uint64_t messages_completed_ = 0;
  std::int64_t bytes_completed_ = 0;
  core::Time last_completion_ = core::kTimeNever;
  std::vector<std::int32_t> phase_remaining_;
  std::vector<core::Time> phase_last_;
  std::vector<std::int32_t> rank_remaining_;
  std::vector<core::Time> rank_last_;
  std::vector<std::int32_t> wake_;  ///< scratch: ranks to nudge after resolution
};

}  // namespace ibsim::workload
