#pragma once

#include <cstdint>
#include <vector>

namespace ibsim::core {

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
