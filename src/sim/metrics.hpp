#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "fabric/interfaces.hpp"

namespace ibsim::sim {

/// Collects per-node delivery statistics from the HCA sinks: receive
/// rates (the paper's primary metric), end-to-end packet latency, and a
/// hotspot / non-hotspot classification supplied by the caller.
class MetricsCollector final : public fabric::SinkObserver {
 public:
  MetricsCollector(std::int32_t n_nodes, double latency_hist_max_us);

  void on_delivered(ib::NodeId node, const ib::Packet& pkt, core::Time now) override;

  /// Start the measurement window (discard everything seen so far).
  void reset_window(core::Time now);

  /// Mark which nodes count as hotspots for aggregation.
  void set_hotspots(const std::vector<ib::NodeId>& hotspots);

  /// Fold another collector's deliveries into this one (the sharded
  /// engine merges per-shard collectors post-run). Both collectors must
  /// cover the same node count, histogram bounds, and window start.
  void absorb(const MetricsCollector& other);

  [[nodiscard]] core::Time window_start() const { return window_start_; }

  /// Receive rate of one node over the window ending at `now`, Gb/s.
  [[nodiscard]] double node_gbps(ib::NodeId node, core::Time now) const;

  /// Mean receive rate over a node class, Gb/s.
  [[nodiscard]] double avg_hotspot_gbps(core::Time now) const;
  [[nodiscard]] double avg_non_hotspot_gbps(core::Time now) const;
  [[nodiscard]] double avg_all_gbps(core::Time now) const;

  /// Sum of all nodes' receive rates (the paper's "total network
  /// throughput"), Gb/s.
  [[nodiscard]] double total_throughput_gbps(core::Time now) const;

  /// Jain fairness index over the given node class's receive rates.
  [[nodiscard]] double jain_non_hotspot(core::Time now) const;

  [[nodiscard]] const core::Histogram& latency_us() const { return latency_us_; }
  [[nodiscard]] std::int64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  std::vector<core::RateCounter> rx_;
  std::vector<bool> hotspot_;
  std::int32_t n_hotspots_ = 0;
  core::Histogram latency_us_;
  core::Time window_start_ = 0;
  std::int64_t delivered_bytes_ = 0;
};

}  // namespace ibsim::sim
