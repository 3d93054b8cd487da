#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"

namespace ibsim::core {

/// Windowed byte/packet counter. `reset(now)` starts a measurement
/// window (used to discard warm-up transients); rates are computed
/// against the window start.
class RateCounter {
 public:
  void add(std::int64_t bytes) {
    bytes_ += bytes;
    ++packets_;
  }
  void reset(Time now) {
    bytes_ = 0;
    packets_ = 0;
    window_start_ = now;
  }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t packets() const { return packets_; }
  [[nodiscard]] Time window_start() const { return window_start_; }
  /// Average rate in Gb/s between window start and `now`. A zero-length
  /// (or inverted) window reports 0.0 rather than dividing by zero —
  /// callers sample at arbitrary times, including the window-start
  /// instant itself.
  [[nodiscard]] double gbps(Time now) const {
    if (now <= window_start_) return 0.0;
    return rate_gbps(bytes_, now - window_start_);
  }
  /// Fold another counter's traffic into this one (shard-metrics merge;
  /// both counters must share a window start for the rate to be valid).
  void absorb(const RateCounter& other) {
    bytes_ += other.bytes_;
    packets_ += other.packets_;
  }

 private:
  std::int64_t bytes_ = 0;
  std::int64_t packets_ = 0;
  Time window_start_ = 0;
};

/// Fixed-bin histogram over [lo, hi) with overflow/underflow bins.
/// Used for packet latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  /// Linear-interpolated quantile estimate, q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  void reset();
  /// Fold another histogram's samples into this one. Both histograms
  /// must have identical bounds and bin counts (asserted).
  void absorb(const Histogram& other);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Jain's fairness index of a set of allocations: (sum x)^2 / (n * sum x^2);
/// 1.0 = perfectly fair, 1/n = one node takes everything.
[[nodiscard]] double jain_fairness(const std::vector<double>& xs);

}  // namespace ibsim::core
