#pragma once

#include "core/stats.hpp"
#include "fabric/interfaces.hpp"

namespace ibsim::sim {

/// Collects the end-to-end latency of every data packet the HCA sinks
/// deliver: the histogram behind SimResult's median and p99. Receive
/// rates are not counted here; Simulation reads them from each HCA's
/// own delivered-byte count (DESIGN.md §7).
class LatencyCollector final : public fabric::SinkObserver {
 public:
  explicit LatencyCollector(double latency_hist_max_us);

  void on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) override;

  /// Start the measurement window (discard every sample so far).
  void reset();

  /// Fold another collector's samples into this one (the sharded engine
  /// merges per-shard collectors post-run). Both collectors must have
  /// the same histogram bounds.
  void absorb(const LatencyCollector& other);

  [[nodiscard]] const core::Histogram& latency_us() const { return latency_us_; }

 private:
  core::Histogram latency_us_;
};

}  // namespace ibsim::sim
